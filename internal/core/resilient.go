package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"

	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/obs"
	"gpuperf/internal/workloads"
)

// The resilient collector is Collect wrapped in the fault harness: boots,
// clock sets, profiling passes and metered observations all retry
// transient faults with backoff, hung launches are killed by the watchdog
// and recovered by a reflash, and a benchmark that exhausts its retry
// budget is dropped from the dataset — recorded in Dataset.Dropped so the
// report can say the model was trained without it — instead of failing
// the campaign.

// DroppedBench names a benchmark excluded from a resilient dataset and
// the fault that exhausted its retry budget.
type DroppedBench struct {
	Benchmark string
	Point     fault.Point
}

// CollectOptions configures a unified collection campaign.
type CollectOptions struct {
	Seed int64
	// Workers bounds the pool; < 1 means 1, the bit-exact sequential
	// reference (the dataset is identical at any width).
	Workers int
	// Res carries the fault campaign and the retry/watchdog policy. nil
	// behaves like a fault-free harness with a single attempt per pass.
	Res *fault.Resilience
}

// cancelled wraps a context's cancellation cause in the package's error
// shape; errors.Is against the original cause keeps working.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("core: collect cancelled: %w", context.Cause(ctx))
}

// CollectCtx is the unified collection engine: every sequential, parallel
// and resilient collect variant is a configuration of this one
// implementation. With a nil or fault-free Resilience it produces the
// reference dataset; under an all-transient campaign with enough retries
// it converges to the same dataset, and under permanent faults it
// degrades by dropping benchmarks (Dataset.Dropped).
//
// The context is checked before every measurement pass and retry attempt:
// a cancel aborts the collection within one in-flight pass per worker and
// returns the cause wrapped in the error.
func CollectCtx(ctx context.Context, boardName string, benches []*workloads.Benchmark, opts CollectOptions) (*Dataset, error) {
	// The materialized dataset is one fold over the row stream; the
	// engine itself lives in CollectStream.
	fold := NewDatasetFold(len(benches))
	st, err := CollectStream(ctx, boardName, benches, opts, fold)
	if err != nil {
		return nil, err
	}
	return fold.Dataset(st), nil
}

// CollectResilient is CollectParallel under the fault harness.
//
// Deprecated: use CollectCtx (or session.Session.Collect) with
// CollectOptions.Res — CollectResilient is the unified engine without a
// context and delegates to it.
func CollectResilient(boardName string, benches []*workloads.Benchmark, seed int64, workers int, res *fault.Resilience) (*Dataset, error) {
	return CollectCtx(context.Background(), boardName, benches,
		CollectOptions{Seed: seed, Workers: workers, Res: res})
}

// collectBench is the per-benchmark collector the pool workers call; a
// variable so tests can inject failures into the error path.
var collectBench = collectBenchR

// collectBenchR gathers one benchmark's samples under the fault harness.
// A nil *DroppedBench and nil error mean success; a non-nil *DroppedBench
// means the benchmark was sacrificed to a fault that would not go away.
//
// Each profiling pass and each observation draws from a noise stream
// scoped to its (scale, pair), so a retried pass replays exactly the
// noise a clean run would have drawn — the engine's output is a pure
// function of the seed.
func collectBenchR(ctx context.Context, boardName string, b *workloads.Benchmark, seed int64, res *fault.Resilience, co *collectObs) ([]Observation, int, int, *DroppedBench, error) {
	scope := boardName + "|" + b.Name
	track := res.Obs.Track("model/" + boardName + "/" + b.Name)
	span := track.Begin("collect "+b.Name, obs.Arg{Key: "board", Value: boardName})
	defer span.End()
	retries := 0
	var dev *driver.Device
	var lastPt fault.Point
	for attempt := 0; attempt < res.Attempts(); attempt++ {
		if ctx.Err() != nil {
			return nil, 0, 0, nil, cancelled(ctx)
		}
		d, err := driver.OpenBoardWithFaults(boardName, res.Injector("boot|"+scope, attempt))
		if err == nil {
			dev = d
			retries += attempt
			break
		}
		pt, transient := fault.PointOf(err)
		if !transient {
			return nil, 0, 0, nil, err
		}
		lastPt = pt
		res.RecordRetry(pt)
		track.Instant("boot retry", obs.Arg{Key: "point", Value: string(pt)},
			obs.Arg{Key: "attempt", Value: strconv.Itoa(attempt)})
		track.Advance(res.Backoff("boot|"+scope, attempt).Seconds())
		res.Pause("boot|"+scope, attempt)
	}
	if dev == nil {
		if co != nil {
			co.dropped.Inc()
			track.Instant("dropped (boot failed)", obs.Arg{Key: "point", Value: string(lastPt)})
		}
		return nil, 0, res.Attempts() - 1, &DroppedBench{Benchmark: b.Name, Point: lastPt}, nil
	}
	if res.Obs != nil {
		dev.Observe(res.Obs, track.Name())
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(b.Name)) // fnv: hash.Hash.Write never errors
	dev.Seed(seed ^ int64(h.Sum64()))

	pairs := clock.ValidPairs(dev.Spec())
	var rows []Observation
	samples := 0
	sizes := b.Sizes
	if len(sizes) == 0 {
		sizes = []float64{1}
	}
	for _, scale := range sizes {
		kernels := b.Kernels(scale)
		hostGap := b.HostGap(scale)

		// Batched fast path: the passes below launch each kernel once
		// profiled at the default pair, then unprofiled at every pair.
		// Precompute every pair kernel-major (compile once, evaluate all
		// pairs in one pass) so the metered loop, the profiled pass
		// included, runs against the device's launch cache. Payloads are
		// bit-identical to per-launch simulation, so the dataset is
		// unchanged.
		if _, perr := dev.PrecomputePairs(kernels, pairs); perr != nil {
			return nil, 0, 0, nil, perr
		}

		// run is one metered pass (optionally profiled) at the given pair
		// inside the retry loop. The seed tag matches collectBenchmark's
		// for the same pass, so a successful attempt replays the plain
		// path's noise exactly; a nil result with a fault point means the
		// budget ran out.
		run := func(p clock.Pair, seedTag, passScope string, profiled bool) (*driver.RunResult, fault.Point, error) {
			retry := func(pt fault.Point, attempt int) {
				res.RecordRetry(pt)
				track.Instant("retry", obs.Arg{Key: "point", Value: string(pt)},
					obs.Arg{Key: "pair", Value: p.String()},
					obs.Arg{Key: "attempt", Value: strconv.Itoa(attempt)})
				track.Advance(res.Backoff(passScope, attempt).Seconds())
				res.Pause(passScope, attempt)
			}
			var last fault.Point
			for attempt := 0; attempt < res.Attempts(); attempt++ {
				if ctx.Err() != nil {
					// A cancelled parent must not spin the retry budget —
					// abort the pass at the attempt boundary.
					return nil, "", cancelled(ctx)
				}
				if attempt > 0 {
					retries++
				}
				dev.AttachFaults(res.Injector(passScope, attempt))
				dev.SeedScoped(seedTag)
				if err := dev.SetClocks(p); err != nil {
					pt, transient := fault.PointOf(err)
					if !transient {
						return nil, "", err
					}
					last = pt
					retry(pt, attempt)
					continue
				}
				if profiled {
					dev.EnableProfiler()
				}
				runCtx, cancel := res.LaunchContext(ctx)
				rr, err := dev.RunMeteredCtx(runCtx, b.Name, kernels, hostGap, MinRunSeconds)
				cancel()
				if profiled {
					dev.DisableProfiler()
				}
				if err != nil {
					pt, transient := fault.PointOf(err)
					if !transient {
						return nil, "", err
					}
					last = pt
					if pt == fault.LaunchHang {
						if rerr := dev.Reflash(); rerr != nil {
							return nil, "", rerr
						}
					}
					retry(pt, attempt)
					continue
				}
				if rr.Measurement.Degraded() && attempt+1 < res.Attempts() {
					last = fault.MeterDegraded
					retry(fault.MeterDegraded, attempt)
					continue
				}
				return rr, "", nil
			}
			return nil, last, nil
		}

		prof, pt, err := run(clock.DefaultPair(), fmt.Sprintf("profile|%g", scale),
			fmt.Sprintf("%s|profile|%g", scope, scale), true)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		if prof == nil {
			if co != nil {
				co.dropped.Inc()
				track.Instant("dropped", obs.Arg{Key: "point", Value: string(pt)})
			}
			return nil, 0, retries, &DroppedBench{Benchmark: b.Name, Point: pt}, nil
		}
		perIter := make([]float64, len(prof.Counters))
		for i, c := range prof.Counters {
			perIter[i] = c / float64(prof.Iterations)
		}
		driver.ReleaseRunResult(prof) // per-iteration counters copied out above

		samples++
		for _, p := range pairs {
			rr, pt, err := run(p, fmt.Sprintf("obs|%g|%s", scale, p),
				fmt.Sprintf("%s|obs|%g|%s", scope, scale, p), false)
			if err != nil {
				return nil, 0, 0, nil, err
			}
			if rr == nil {
				if co != nil {
					co.dropped.Inc()
					track.Instant("dropped", obs.Arg{Key: "point", Value: string(pt)})
				}
				return nil, 0, retries, &DroppedBench{Benchmark: b.Name, Point: pt}, nil
			}
			rows = append(rows, Observation{
				Benchmark: b.Name,
				Scale:     scale,
				Pair:      p,
				CoreGHz:   dev.Spec().CoreFreqGHz(p.Core),
				MemGHz:    dev.Spec().MemFreqGHz(p.Mem),
				Counters:  perIter,
				TimeS:     rr.TimePerIteration(),
				PowerW:    rr.Measurement.AvgWatts,
			})
			driver.ReleaseRunResult(rr) // the observation copied out everything it needs
		}
	}
	if co != nil {
		co.rows.Add(int64(len(rows)))
	}
	return rows, samples, retries, nil, nil
}
