package main

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
	"gpuperf/internal/obs"
	"gpuperf/internal/workloads"
)

// nproc is the worker count every workload uses: one per schedulable CPU.
func nproc() int { return runtime.GOMAXPROCS(0) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timing is the median duration of n timed calls, or the first error.
type timing struct {
	median time.Duration
	err    error
}

// timeCalls times n calls of f; probes isolate one layer's unit cost.
func timeCalls(n int, f func() error) timing {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return timing{err: err}
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return timing{median: time.Duration(median(ds))}
}

// spanSelf is the median, over the traced ops, of one op's total self time
// in spans and leaves named name, in nanoseconds.
func spanSelf(tr *tracer, ops []int64, name string) float64 {
	var xs []float64
	for _, op := range ops {
		if _, layers := tr.opLedger(op); layers[name] != nil {
			xs = append(xs, float64(layers[name].SelfNS))
		}
	}
	return median(xs)
}

// perCall is the median, over the traced ops, of one op's self time in
// name divided by its call count (or by per(op) when per is non-nil), in
// nanoseconds.
func perCall(tr *tracer, ops []int64, name string, per func(op int64) float64) float64 {
	var xs []float64
	for _, op := range ops {
		_, layers := tr.opLedger(op)
		lt := layers[name]
		if lt == nil {
			continue
		}
		n := float64(lt.Calls)
		if per != nil {
			n = per(op)
		}
		if n > 0 {
			xs = append(xs, float64(lt.SelfNS)/n)
		}
	}
	return median(xs)
}

// apparatusProbe times the simulator and meter layers on one board spec
// and benchmark set: a kernel compile, a compiled kernel replayed across
// the board's whole pair lattice, and one periodic metering of a
// launch's waveform.
func apparatusProbe(spec *arch.Spec, benches []*workloads.Benchmark, seed int64, m metrics) error {
	pairs := clock.ValidPairs(spec)
	sim := gpu.New(spec, clock.NewState(spec))
	var kernels []*gpu.KernelDesc
	for _, b := range benches {
		kernels = append(kernels, b.Kernels(1)...)
	}
	var compile, runPairs []float64
	for _, k := range kernels {
		start := time.Now()
		ck, err := sim.Compile(k)
		if err != nil {
			return err
		}
		compile = append(compile, float64(time.Since(start)))
		start = time.Now()
		rs, err := sim.RunPairs(ck, pairs)
		if err != nil {
			return err
		}
		runPairs = append(runPairs, float64(time.Since(start)))
		for _, r := range rs {
			gpu.ReleaseResult(r)
		}
	}
	m["gpu.compile_us"] = mean(compile) / 1e3
	m["gpu.run_pairs_us"] = mean(runPairs) / 1e3

	dev, err := driver.OpenSpec(spec)
	if err != nil {
		return err
	}
	dev.Seed(seed)
	lr, err := dev.Launch(kernels[0])
	if err != nil {
		return err
	}
	period := lr.Trace
	repeats := int(math.Ceil(characterize.MinRunSeconds / period.TotalDuration()))
	rng := rand.New(rand.NewSource(seed))
	mp := timeCalls(50, func() error {
		_, err := dev.Meter().MeasurePeriodic(meter.Tile(period, repeats), rng)
		return err
	})
	if mp.err != nil {
		return mp.err
	}
	m["meter.measure_periodic_us"] = mp.median.Seconds() * 1e6
	return nil
}

// driverCounters are the program's own counters the per-layer metrics
// read through Registry.Total.
var driverCounters = []string{
	"driver_launches_total", "driver_launch_cache_hits_total", "driver_launch_cache_misses_total",
	"meter_measurements_total", "regress_forward_selections_total",
}

// sharedHits is the derived counter of launch-cache hits served by the
// process-wide LRU (the cache="shared" series, summed over boards).
const sharedHits = "shared_hits"

// totals reads the named counters, summed over every label set, plus the
// shared-cache hits; a counter the run never registered reads 0.
func totals(reg *obs.Registry, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names)+1)
	for _, n := range names {
		if v, ok := reg.Total(n); ok {
			out[n] = float64(v)
		}
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err == nil {
		for _, line := range strings.Split(text.String(), "\n") {
			if !strings.HasPrefix(line, "driver_launch_cache_hits_total{") || !strings.Contains(line, `cache="shared"`) {
				continue
			}
			if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
				out[sharedHits] += v
			}
		}
	}
	return out
}

// setDriverMetrics fills the driver, meter and regression counts from
// counter totals, scaled to one op. The hit ratio is the share of the
// simulations launches needed that the shared LRU answered. Hits on the
// per-device map follow a batched prefill and would count every cell
// twice; the hits counter also counts prefill lookups, which are not
// launches, so hits / launches can exceed 1.
func setDriverMetrics(m metrics, t map[string]float64, scale float64) {
	m["driver.launches"] = t["driver_launches_total"] * scale
	if n := t[sharedHits] + t["driver_launch_cache_misses_total"]; n > 0 {
		m["driver.cache_hit_ratio"] = t[sharedHits] / n
	}
	m["meter.measurements"] = t["meter_measurements_total"] * scale
	m["regress.forward_selections"] = t["regress_forward_selections_total"] * scale
}
