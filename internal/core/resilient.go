package core

import (
	"context"
	"fmt"
	"hash/fnv"

	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/obs"
	"gpuperf/internal/workloads"
)

// The collector measures through the measurement harness (driver.Harness),
// the one the sweep uses. Under a fault campaign boots, clock sets,
// profiling passes and metered observations all retry transient faults
// with backoff, hung launches are killed by the watchdog and recovered by
// a reflash, and a benchmark that exhausts its retry budget is dropped
// from the dataset — recorded in Dataset.Dropped so the report can say
// the model was trained without it — instead of failing the campaign.

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

// CollectCtx is the unified collection engine. It builds the modeling
// dataset for one board: every modeled benchmark at every input size is
// profiled once at the default clocks and then measured (time + wall
// power) at every valid frequency pair. Each benchmark's noise stream is
// seeded independently (seed ⊕ name), so the dataset is identical at any
// worker count. With a nil or fault-free Resilience it produces the
// reference dataset; under an all-transient campaign with enough retries
// it converges to the same dataset, and under permanent faults it
// degrades by dropping benchmarks (Dataset.Dropped).
//
// The context is checked before every measurement pass and retry attempt:
// a cancel aborts the collection within one in-flight pass per worker and
// returns the cause wrapped in the error.
func CollectCtx(ctx context.Context, boardName string, benches []*workloads.Benchmark, opts CollectOptions) (*Dataset, error) {
	res := opts.Res
	if res == nil {
		res = &fault.Resilience{}
	}
	res.Observe()
	co := newCollectObs(res.Obs, boardName)
	// The probe device is booted only to read the board's spec and
	// counter set; Release touches neither, so it goes back at once.
	probe, err := driver.OpenBoard(boardName)
	if err != nil {
		return nil, err
	}
	spec, set := probe.Spec(), probe.CounterSet()
	probe.Release()

	type slot struct {
		rows    []Observation
		samples int
		retries int
		dropped *DroppedBench
	}
	// Each job writes only its own slot; Pool returns after every job has
	// delivered its result, so the reads below are ordered after the writes.
	slots := make([]slot, len(benches))
	err = driver.Pool(ctx, opts.Workers, len(benches), cancelled, func(idx int) error {
		s := &slots[idx]
		var err error
		s.rows, s.samples, s.retries, s.dropped, err = collectBench(ctx, boardName, benches[idx], opts.Seed, res, co)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Concatenating the slots in benchmark order gives the same rows at
	// any worker count. A dropped benchmark contributes its retries and
	// nothing else.
	ds := &Dataset{Board: boardName, Spec: spec, Set: set}
	n := 0
	for _, s := range slots {
		if s.dropped == nil {
			n += len(s.rows)
		}
	}
	ds.Rows = make([]Observation, 0, n)
	for _, s := range slots {
		ds.Retries += s.retries
		if s.dropped != nil {
			ds.Dropped = append(ds.Dropped, *s.dropped)
			continue
		}
		ds.Samples += s.samples
		ds.Rows = append(ds.Rows, s.rows...)
	}
	return ds, nil
}

// collectBench is the per-benchmark collector the pool workers call; a
// variable so tests can inject failures into the error path.
var collectBench = collectBenchR

// collectBenchR gathers one benchmark's samples under the measurement
// harness: it boots through the harness's boot-retry loop and runs every
// profiling pass and observation through its metered-pass loop. A nil
// *DroppedBench and nil error mean success; a non-nil *DroppedBench means
// the benchmark was sacrificed to a fault that would not go away.
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
	drop := func(instant string, pt fault.Point) *DroppedBench {
		if co != nil {
			co.dropped.Inc()
			track.Instant(instant, obs.Arg{Key: "point", Value: string(pt)})
		}
		return &DroppedBench{Benchmark: b.Name, Point: pt}
	}
	h := driver.Harness{Res: res, Track: track, Cancelled: cancelled}
	dev, retries, pt, err := h.Boot(ctx, scope, func(in *fault.Injector) (*driver.Device, error) {
		return driver.OpenBoardWithFaults(boardName, in)
	})
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if dev == nil {
		return nil, 0, retries, drop("dropped (boot failed)", pt), nil
	}
	defer dev.Release() // the collector booted it and nothing keeps it past the job
	if res.Obs != nil {
		dev.Observe(res.Obs, track)
	}
	fh := fnv.New64a()
	_, _ = fh.Write([]byte(b.Name)) // fnv: hash.Hash.Write never errors
	dev.Seed(seed ^ int64(fh.Sum64()))

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

		// The profiling pass collects counters at the default clocks; a
		// nil run with a fault point means its retry budget ran out.
		dev.EnableProfiler()
		prof, attempt, pt, err := dev.RunMeteredRetried(ctx, h, clock.DefaultPair(),
			fmt.Sprintf("%s|profile|%g", scope, scale), fmt.Sprintf("profile|%g", scale),
			b.Name, kernels, hostGap, MinRunSeconds)
		dev.DisableProfiler()
		if err != nil {
			return nil, 0, 0, nil, err
		}
		retries += attempt
		if prof == nil {
			return nil, 0, retries, drop("dropped", pt), nil
		}
		perIter := make([]float64, len(prof.Counters))
		for i, c := range prof.Counters {
			perIter[i] = c / float64(prof.Iterations)
		}
		driver.ReleaseRunResult(prof) // per-iteration counters copied out above

		samples++
		for _, p := range pairs {
			rr, attempt, pt, err := dev.RunMeteredRetried(ctx, h, p,
				fmt.Sprintf("%s|obs|%g|%s", scope, scale, p), fmt.Sprintf("obs|%g|%s", scale, p),
				b.Name, kernels, hostGap, MinRunSeconds)
			if err != nil {
				return nil, 0, 0, nil, err
			}
			retries += attempt
			if rr == nil {
				return nil, 0, retries, drop("dropped", pt), nil
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
