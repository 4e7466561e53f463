package driver

import (
	"context"
	"strconv"

	"gpuperf/internal/clock"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/obs"
)

// The measurement harness. The paper measures every (benchmark, board,
// frequency pair) cell one way — patch the pair into the VBIOS, reboot,
// run the kernels until the meter holds at least 10 samples — and under a
// fault campaign every step can fail transiently. The Section III sweep
// and the Section IV collector both measure through the retry loops and
// the worker pool below, next to the fault-aware calls they make. A nil
// Resilience makes each loop one fault-free attempt, so the fault-free
// path is the resilient path.

// Harness is the retry context one campaign job measures under.
type Harness struct {
	// Res is the fault campaign and the retry/watchdog policy; nil means
	// one attempt with nothing injected.
	Res *fault.Resilience
	// Track receives the retry instants and the backoff on the job's
	// virtual timeline; nil leaves the job unobserved.
	Track *obs.Track
	// Cancelled wraps a done context's cause in the engine's own error
	// shape; errors.Is against the cause must keep working through it.
	Cancelled func(context.Context) error
}

// backoff books one failed attempt: the retry counter, the trace instant,
// the deterministic backoff on the virtual timeline and the real pause.
func (h Harness) backoff(scope string, attempt int, pt fault.Point, instant string, args ...obs.Arg) {
	h.Res.RecordRetry(pt)
	h.Track.Instant(instant, args...)
	h.Track.Advance(h.Res.Backoff(scope, attempt).Seconds())
	h.Res.Pause(scope, attempt)
}

// Boot opens a device inside the boot-retry loop: each attempt hands open
// the ("boot|"+scope, attempt) injector, which may refuse the boot
// (boot.fail). It returns the device and the attempt index it booted on.
// A boot that exhausts the budget returns a nil device, the last attempt
// index and the fault that kept failing, and the caller degrades: the
// sweep quarantines the benchmark's cells, the collector drops the
// benchmark. Non-transient errors return unchanged.
func (h Harness) Boot(ctx context.Context, scope string, open func(*fault.Injector) (*Device, error)) (*Device, int, fault.Point, error) {
	scope = "boot|" + scope
	attempts := h.Res.Attempts()
	var lastPt fault.Point
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			return nil, attempt, "", h.Cancelled(ctx)
		}
		dev, err := open(h.Res.Injector(scope, attempt))
		if err == nil {
			return dev, attempt, "", nil
		}
		pt, transient := fault.PointOf(err)
		if !transient {
			return nil, attempt, "", err
		}
		lastPt = pt
		h.backoff(scope, attempt, pt, "boot retry", obs.Arg{Key: "point", Value: string(pt)},
			obs.Arg{Key: "attempt", Value: strconv.Itoa(attempt)})
	}
	return nil, attempts - 1, lastPt, nil
}

// RunMeteredRetried is one metered pass at pair p inside the retry loop:
// every sweep cell and every modeling observation is one. Each attempt
// attaches the (scope, attempt) injector, reseeds the noise to the
// seedTag stream (so a retried pass replays the noise a clean first
// attempt would have drawn), sets the clocks and runs the kernels under
// the launch watchdog. A transient fault retries with backoff, and a
// hang reflashes the device first. A degraded measurement retries while
// budget remains; the last attempt accepts it. Counter collection
// follows the device's profiler switch.
//
// It returns the run and the attempt index it succeeded on. On
// exhaustion it returns a nil run, the last attempt index and the fault
// that kept failing. Non-transient errors return unchanged.
func (d *Device) RunMeteredRetried(ctx context.Context, h Harness, p clock.Pair, scope, seedTag, name string, ks []*gpu.KernelDesc, hostGapSeconds, minDuration float64) (*RunResult, int, fault.Point, error) {
	retry := func(pt fault.Point, attempt int) {
		h.backoff(scope, attempt, pt, "retry", obs.Arg{Key: "point", Value: string(pt)},
			obs.Arg{Key: "pair", Value: p.String()},
			obs.Arg{Key: "attempt", Value: strconv.Itoa(attempt)})
	}
	attempts := h.Res.Attempts()
	var lastPt fault.Point
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			// A cancelled parent must not spin the retry budget (an
			// injected hang's watchdog fires on the same cancel).
			return nil, attempt, "", h.Cancelled(ctx)
		}
		d.AttachFaults(h.Res.Injector(scope, attempt))
		d.SeedScoped(seedTag)
		if err := d.SetClocks(p); err != nil {
			pt, transient := fault.PointOf(err)
			if !transient {
				return nil, attempt, "", err
			}
			lastPt = pt
			retry(pt, attempt)
			continue
		}
		runCtx, cancel := h.Res.LaunchContext(ctx)
		rr, err := d.RunMeteredCtx(runCtx, name, ks, hostGapSeconds, minDuration)
		cancel()
		if err != nil {
			pt, transient := fault.PointOf(err)
			if !transient {
				return nil, attempt, "", err
			}
			lastPt = pt
			if pt == fault.LaunchHang {
				// The watchdog killed a hung launch; the device is wedged
				// and needs a reboot before the next attempt.
				if rerr := d.Reflash(); rerr != nil {
					return nil, attempt, "", rerr
				}
			}
			retry(pt, attempt)
			continue
		}
		if rr.Measurement.Degraded() && attempt+1 < attempts {
			// The measurement survived but leans on interpolated windows;
			// retry for a clean one.
			lastPt = fault.MeterDegraded
			retry(fault.MeterDegraded, attempt)
			continue
		}
		return rr, attempt, "", nil
	}
	return nil, attempts - 1, lastPt, nil
}

// Pool runs jobs 0..n-1 through at most workers goroutines (< 1 means 1)
// and returns the lowest-index error, so the reported failure does not
// depend on scheduling. Results leave through run, never through the
// pool. Both channels are buffered to the job count, so no goroutine can
// block on delivery and the error path leaks nothing. The context is
// checked before each job: once it is done, the remaining jobs fail with
// cancelled(ctx) while in-flight ones stop at their own boundaries.
func Pool(ctx context.Context, workers, n int, cancelled func(context.Context) error, run func(int) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	type done struct {
		idx int
		err error
	}
	queue := make(chan int, n)
	for i := 0; i < n; i++ {
		queue <- i
	}
	close(queue)
	results := make(chan done, n)
	for w := 0; w < workers; w++ {
		go func() {
			for idx := range queue {
				if ctx.Err() != nil {
					results <- done{idx: idx, err: cancelled(ctx)}
					continue
				}
				results <- done{idx: idx, err: run(idx)}
			}
		}()
	}
	var firstErr error
	firstIdx := n
	for i := 0; i < n; i++ {
		d := <-results
		if d.err != nil && d.idx < firstIdx {
			firstErr, firstIdx = d.err, d.idx
		}
	}
	return firstErr
}
