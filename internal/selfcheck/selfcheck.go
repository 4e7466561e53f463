// Package selfcheck verifies the simulated apparatus end to end — the
// "does my install behave" tool a user runs before trusting experiment
// output. Each check exercises one cross-stack invariant (energy
// conservation through the meter, DVFS monotonicity, counter/energy
// decoupling, VBIOS round-trips, model sanity) and reports pass/fail with
// a human-readable detail line.
package selfcheck

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"gpuperf/internal/arch"
	"gpuperf/internal/bios"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/core"
	"gpuperf/internal/driver"
	"gpuperf/internal/workloads"
)

// Result is one check's outcome.
type Result struct {
	Name   string
	OK     bool
	Detail string
}

// Run executes every check for every Table I board and returns the
// results in order. seed drives the noise streams.
func Run(seed int64) []Result {
	var out []Result
	add := func(name string, ok bool, detail string, args ...interface{}) {
		out = append(out, Result{Name: name, OK: ok, Detail: fmt.Sprintf(detail, args...)})
	}

	for _, spec := range arch.AllBoards() {
		prefix := spec.Name + ": "

		// 1. VBIOS round trip: build → patch every pair → reboot.
		img := bios.Build(spec)
		okPairs := true
		for _, p := range clock.ValidPairs(spec) {
			if err := bios.PatchBootPair(img, p); err != nil {
				okPairs = false
				break
			}
			if _, err := driver.Open(img); err != nil {
				okPairs = false
				break
			}
		}
		add(prefix+"vbios-roundtrip", okPairs, "%d pairs bootable", len(clock.ValidPairs(spec)))

		dev, err := driver.OpenBoard(spec.Name)
		if err != nil {
			add(prefix+"boot", false, "%v", err)
			continue
		}
		dev.Seed(seed)

		// 2. Energy conservation: metered energy tracks the trace
		// integral within sampling + noise error.
		b := workloads.ByName("gaussian")
		rr, err := dev.RunMetered(b.Name, b.Kernels(1), b.HostGap(1), 0.5)
		if err != nil {
			add(prefix+"metered-run", false, "%v", err)
			continue
		}
		obs := rr.Measurement.Duration
		// Integrate the trace over the observed window only.
		truthOverWindow := rr.Trace.EnergyUpTo(obs)
		drift := math.Abs(rr.Measurement.EnergyJoules-truthOverWindow) / truthOverWindow
		add(prefix+"energy-conservation", drift < 0.03,
			"meter vs trace drift %.2f%% over %.2f s", drift*100, obs)

		// 3. DVFS monotonicity: no valid pair beats (H-H) on time.
		base, err := dev.RunMetered(b.Name, b.Kernels(1), b.HostGap(1), 0.5)
		if err != nil {
			add(prefix+"dvfs-baseline", false, "%v", err)
			continue
		}
		monotone := true
		worst := 1.0
		for _, p := range clock.ValidPairs(spec) {
			if err := dev.SetClocks(p); err != nil {
				monotone = false
				break
			}
			r, err := dev.RunMetered(b.Name, b.Kernels(1), b.HostGap(1), 0.5)
			if err != nil {
				monotone = false
				break
			}
			ratio := r.TimePerIteration() / base.TimePerIteration()
			if ratio < worst {
				worst = ratio
			}
		}
		add(prefix+"dvfs-monotone", monotone && worst > 1-1e-9,
			"fastest pair at %.4fx of (H-H)", worst)
		if err := dev.SetClocks(clock.DefaultPair()); err != nil {
			add(prefix+"reset-clocks", false, "%v", err)
			continue
		}

		// 4. Counter determinism: same seed, same counters.
		dev.Seed(seed)
		dev.EnableProfiler()
		p1, err1 := dev.RunMetered(b.Name, b.Kernels(1), b.HostGap(1), 0.5)
		dev.Seed(seed)
		p2, err2 := dev.RunMetered(b.Name, b.Kernels(1), b.HostGap(1), 0.5)
		dev.DisableProfiler()
		det := err1 == nil && err2 == nil && len(p1.Counters) == len(p2.Counters)
		if det {
			for i := range p1.Counters {
				if p1.Counters[i] != p2.Counters[i] { //gpulint:ignore unitsafety -- bit-exact reproducibility is the invariant under test
					det = false
					break
				}
			}
		}
		add(prefix+"profiler-determinism", det, "%d counters", dev.CounterSet().Len())
	}

	// 5. Characterization shape: the Fig. 4 generation ladder.
	var boards []string
	for _, spec := range arch.AllBoards() {
		boards = append(boards, spec.Name)
	}
	sweeps, err := characterize.Sweep(context.Background(), boards, workloads.Table4(),
		characterize.SweepOptions{Seed: seed, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		add("fig4-ladder", false, "%v", err)
	} else {
		m285 := characterize.MeanImprovementPct(sweeps["GTX 285"])
		m680 := characterize.MeanImprovementPct(sweeps["GTX 680"])
		add("fig4-ladder", m285 < m680,
			"mean improvement GTX 285 %.1f%% < GTX 680 %.1f%%", m285, m680)
	}

	// 6. Modeling sanity on a small corpus: both models train, time R̄²
	// above power R̄² (the paper's Table V/VI relationship).
	var small []*workloads.Benchmark
	for _, n := range []string{"sgemm", "lbm", "gaussian", "spmv"} {
		small = append(small, workloads.ByName(n))
	}
	ds, err := core.CollectCtx(context.Background(), "GTX 680", small,
		core.CollectOptions{Seed: seed, Workers: 1})
	if err != nil {
		add("models-train", false, "%v", err)
		return out
	}
	pm, errP := core.Train(ds, core.Power, core.MaxVariables)
	tm, errT := core.Train(ds, core.Time, core.MaxVariables)
	if errP != nil || errT != nil {
		add("models-train", false, "power: %v, time: %v", errP, errT)
		return out
	}
	add("models-train", true, "power R̄² %.2f, time R̄² %.2f", pm.AdjR2(), tm.AdjR2())
	add("r2-relationship", pm.AdjR2() < tm.AdjR2(),
		"power R̄² %.2f < time R̄² %.2f", pm.AdjR2(), tm.AdjR2())
	return out
}

// AllOK reports whether every check passed.
func AllOK(results []Result) bool {
	for _, r := range results {
		if !r.OK {
			return false
		}
	}
	return true
}
