// The reproduction's benchmark harness: one testing.B per table and figure
// of the paper. Each bench regenerates its artifact end to end (sweep or
// model training on the simulated apparatus) and reports the reproduced
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. EXPERIMENTS.md records these values against
// the paper's. Ablation benches (DESIGN.md §6) quantify the design choices:
// the frequency terms of Eq. 1/2, the Kepler voltage curve, the Fermi
// caches, and forward selection itself.
package gpuperf

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/core"
	"gpuperf/internal/driver"
	"gpuperf/internal/regress"
	"gpuperf/internal/report"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/thermal"
	"gpuperf/internal/workloads"
)

const benchSeed = 42

// Datasets and sweeps are deterministic; cache them so the ~20 benches
// share one collection pass per board.
var (
	dsOnce sync.Once
	dsAll  map[string]*core.Dataset

	sweepOnce sync.Once
	sweepAll  map[string][]*characterize.BenchResult
)

func datasets(b *testing.B) map[string]*core.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		dsAll = map[string]*core.Dataset{}
		for _, spec := range arch.AllBoards() {
			ds, err := core.CollectAll(spec.Name, benchSeed)
			if err != nil {
				b.Fatal(err)
			}
			dsAll[spec.Name] = ds
		}
	})
	return dsAll
}

func sweeps(b *testing.B) map[string][]*characterize.BenchResult {
	b.Helper()
	sweepOnce.Do(func() {
		var boards []string
		for _, spec := range arch.AllBoards() {
			boards = append(boards, spec.Name)
		}
		var err error
		sweepAll, err = characterize.Sweep(context.Background(), boards, workloads.Table4(),
			characterize.SweepOptions{Seed: benchSeed, Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			b.Fatal(err)
		}
	})
	return sweepAll
}

// --- Section II artifacts ---------------------------------------------

// BenchmarkTable1Specs regenerates Table I (board specifications).
func BenchmarkTable1Specs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := report.Table1(arch.AllBoards()).String(); len(s) == 0 {
			b.Fatal("empty Table I")
		}
	}
}

// BenchmarkTable3FreqPairs regenerates Table III (valid frequency pairs),
// decoding it from freshly built VBIOS images as the driver does.
func BenchmarkTable3FreqPairs(b *testing.B) {
	var pairs int
	for i := 0; i < b.N; i++ {
		pairs = 0
		for _, spec := range arch.AllBoards() {
			dev, err := driver.OpenBoard(spec.Name)
			if err != nil {
				b.Fatal(err)
			}
			pairs += len(clock.ValidPairs(dev.Spec()))
		}
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// --- Section III artifacts (characterization) -------------------------

func benchFigCurve(b *testing.B, bench string) {
	var bestImp float64
	for i := 0; i < b.N; i++ {
		for _, spec := range arch.AllBoards() {
			m, err := characterize.Sweep(context.Background(), []string{spec.Name},
				[]*workloads.Benchmark{workloads.ByName(bench)}, characterize.SweepOptions{Seed: benchSeed, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			res := m[spec.Name]
			if curves := characterize.Curves(res[0], spec); len(curves) == 0 {
				b.Fatal("no curves")
			}
			if spec.Name == "GTX 680" {
				bestImp = res[0].ImprovementPct()
			}
		}
	}
	b.ReportMetric(bestImp, "GTX680-impr-%")
}

// BenchmarkFig1Backprop regenerates Fig. 1 (compute-intensive showcase).
func BenchmarkFig1Backprop(b *testing.B) { benchFigCurve(b, "backprop") }

// BenchmarkFig2Streamcluster regenerates Fig. 2 (memory-intensive showcase).
func BenchmarkFig2Streamcluster(b *testing.B) { benchFigCurve(b, "streamcluster") }

// BenchmarkFig3Gaussian regenerates Fig. 3 (regime-flipping showcase).
func BenchmarkFig3Gaussian(b *testing.B) { benchFigCurve(b, "gaussian") }

// BenchmarkTable4BestPairs regenerates Table IV: the best frequency pair of
// every benchmark on every board. Reports how many GTX 680 benchmarks
// prefer a non-default pair (paper: all of them).
func BenchmarkTable4BestPairs(b *testing.B) {
	var nonDefault int
	for i := 0; i < b.N; i++ {
		all := sweeps(b)
		nonDefault = 0
		for _, r := range all["GTX 680"] {
			if r.Best().Pair != clock.DefaultPair() {
				nonDefault++
			}
		}
	}
	b.ReportMetric(float64(nonDefault), "GTX680-nondefault")
}

// BenchmarkFig4Improvement regenerates Fig. 4: the mean power-efficiency
// improvement per board (paper: 0.8 / 12.3 / 12.1 / 24.4 %).
func BenchmarkFig4Improvement(b *testing.B) {
	var m285, m460, m480, m680 float64
	for i := 0; i < b.N; i++ {
		all := sweeps(b)
		m285 = characterize.MeanImprovementPct(all["GTX 285"])
		m460 = characterize.MeanImprovementPct(all["GTX 460"])
		m480 = characterize.MeanImprovementPct(all["GTX 480"])
		m680 = characterize.MeanImprovementPct(all["GTX 680"])
	}
	b.ReportMetric(m285, "GTX285-%")
	b.ReportMetric(m460, "GTX460-%")
	b.ReportMetric(m480, "GTX480-%")
	b.ReportMetric(m680, "GTX680-%")
}

// --- Section IV artifacts (modeling) -----------------------------------

func benchModelR2(b *testing.B, kind core.Kind) {
	var r285, r680 float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)
		for _, board := range []string{"GTX 285", "GTX 460", "GTX 480", "GTX 680"} {
			m, err := core.Train(ds[board], kind, core.MaxVariables)
			if err != nil {
				b.Fatal(err)
			}
			switch board {
			case "GTX 285":
				r285 = m.AdjR2()
			case "GTX 680":
				r680 = m.AdjR2()
			}
		}
	}
	b.ReportMetric(r285, "GTX285-R2")
	b.ReportMetric(r680, "GTX680-R2")
}

// BenchmarkTable5PowerR2 regenerates Table V: adjusted R² of the power
// model per board (paper: 0.30 / 0.59 / 0.70 / 0.18).
func BenchmarkTable5PowerR2(b *testing.B) { benchModelR2(b, core.Power) }

// BenchmarkTable6PerfR2 regenerates Table VI: adjusted R² of the
// performance model per board (paper: 0.91 / 0.90 / 0.94 / 0.91).
func BenchmarkTable6PerfR2(b *testing.B) { benchModelR2(b, core.Time) }

func benchModelError(b *testing.B, kind core.Kind) {
	var pct285, pct680, watts680 float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)
		for _, board := range []string{"GTX 285", "GTX 680"} {
			m, err := core.Train(ds[board], kind, core.MaxVariables)
			if err != nil {
				b.Fatal(err)
			}
			ev := m.Evaluate(ds[board].Rows)
			if board == "GTX 285" {
				pct285 = ev.MeanAbsPct
			} else {
				pct680 = ev.MeanAbsPct
				watts680 = ev.MeanAbsRaw
			}
		}
	}
	b.ReportMetric(pct285, "GTX285-err-%")
	b.ReportMetric(pct680, "GTX680-err-%")
	if kind == core.Power {
		b.ReportMetric(watts680, "GTX680-err-W")
	}
}

// BenchmarkTable7PowerError regenerates Table VII: average power-model
// error (paper: 15.0–23.5 %, 15.2–24.4 W).
func BenchmarkTable7PowerError(b *testing.B) { benchModelError(b, core.Power) }

// BenchmarkTable8PerfError regenerates Table VIII: average performance-
// model error (paper: 67.9 / 47.6 / 39.3 / 33.5 %).
func BenchmarkTable8PerfError(b *testing.B) { benchModelError(b, core.Time) }

func benchErrDistribution(b *testing.B, kind core.Kind) {
	var worst float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)["GTX 680"]
		m, err := core.Train(ds, kind, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		errs := m.PerBenchmarkErrors(ds.Rows)
		if len(errs) != 33 {
			b.Fatalf("%d benchmarks in distribution, want 33", len(errs))
		}
		worst = errs[len(errs)-1].MeanPct
	}
	b.ReportMetric(worst, "worst-bench-err-%")
}

// BenchmarkFig5PowerErrDist regenerates Fig. 5: per-benchmark power-model
// error distribution.
func BenchmarkFig5PowerErrDist(b *testing.B) { benchErrDistribution(b, core.Power) }

// BenchmarkFig6PerfErrDist regenerates Fig. 6: per-benchmark performance-
// model error distribution.
func BenchmarkFig6PerfErrDist(b *testing.B) { benchErrDistribution(b, core.Time) }

func benchVariableSweep(b *testing.B, kind core.Kind) {
	var at5, at10, at20 float64
	for i := 0; i < b.N; i++ {
		points, err := core.VariableSweep(context.Background(), datasets(b)["GTX 680"], kind, core.SweepMinVars, core.SweepMaxVars)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			switch p.Vars {
			case 5:
				at5 = p.MeanAbsPct
			case 10:
				at10 = p.MeanAbsPct
			case 20:
				at20 = p.MeanAbsPct
			}
		}
	}
	b.ReportMetric(at5, "err-%-5vars")
	b.ReportMetric(at10, "err-%-10vars")
	b.ReportMetric(at20, "err-%-20vars")
}

// BenchmarkFig7PowerVars regenerates Fig. 7: power-model accuracy vs the
// number of explanatory variables (paper: saturates near 10).
func BenchmarkFig7PowerVars(b *testing.B) { benchVariableSweep(b, core.Power) }

// BenchmarkFig8PerfVars regenerates Fig. 8: performance-model accuracy vs
// the number of explanatory variables.
func BenchmarkFig8PerfVars(b *testing.B) { benchVariableSweep(b, core.Time) }

func benchPerPair(b *testing.B, kind core.Kind) {
	var unifiedMedian, bestPairMedian float64
	for i := 0; i < b.N; i++ {
		cols, err := core.PerPairComparisonWith(context.Background(), datasets(b)["GTX 680"], kind, core.MaxVariables, nil)
		if err != nil {
			b.Fatal(err)
		}
		bestPairMedian = cols[0].Box.Median
		for _, c := range cols {
			if c.Label == "unified" {
				unifiedMedian = c.Box.Median
			} else if c.Box.Median < bestPairMedian {
				bestPairMedian = c.Box.Median
			}
		}
	}
	b.ReportMetric(unifiedMedian, "unified-median-%")
	b.ReportMetric(bestPairMedian, "best-perpair-median-%")
}

// BenchmarkFig9PowerPerPair regenerates Fig. 9: per-pair power models vs
// the unified model (paper: the unified model remains competitive).
func BenchmarkFig9PowerPerPair(b *testing.B) { benchPerPair(b, core.Power) }

// BenchmarkFig10PerfPerPair regenerates Fig. 10: per-pair performance
// models vs the unified model.
func BenchmarkFig10PerfPerPair(b *testing.B) { benchPerPair(b, core.Time) }

// BenchmarkFig11Influence regenerates Fig. 11: the per-variable influence
// breakdown (paper: 10–15 variables carry essentially all influence).
func BenchmarkFig11Influence(b *testing.B) {
	var topShare float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)["GTX 680"]
		m, err := core.Train(ds, core.Power, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		infl := m.Influences(ds.Rows)
		topShare = 0
		for _, f := range infl {
			if f.Variable != "(intercept)" && f.Share > topShare {
				topShare = f.Share
			}
		}
	}
	b.ReportMetric(topShare*100, "top-var-share-%")
}

// --- Ablations (DESIGN.md §6) ------------------------------------------

// BenchmarkAblationNoFreqScaling compares the unified power model against a
// naive model whose features ignore the clocks: without Eq. 1's frequency
// terms, one model cannot span frequency pairs.
func BenchmarkAblationNoFreqScaling(b *testing.B) {
	var unified, naive float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)["GTX 680"]
		um, err := core.Train(ds, core.Power, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		nm, err := core.TrainNaive(context.Background(), ds, core.Power, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		unified = um.Evaluate(ds.Rows).MeanAbsPct
		naive = nm.Evaluate(ds.Rows).MeanAbsPct
	}
	b.ReportMetric(unified, "unified-err-%")
	b.ReportMetric(naive, "naive-err-%")
}

// BenchmarkAblationVoltageFlat reruns the Kepler backprop sweep on a GTX
// 680 clone with a Tesla-flat voltage curve: the headline saving collapses,
// isolating voltage headroom as the mechanism.
func BenchmarkAblationVoltageFlat(b *testing.B) {
	var normal, flat float64
	for i := 0; i < b.N; i++ {
		normal = sweepImprovement(b, arch.GTX680(), "backprop")
		spec := arch.GTX680()
		spec.Name = "GTX 680" // same board, flattened curve
		spec.CoreVoltLow = spec.CoreVoltHigh
		spec.MemVoltLow = spec.MemVoltHigh
		spec.VoltExponent = 1
		flat = sweepImprovement(b, spec, "backprop")
	}
	b.ReportMetric(normal, "normal-impr-%")
	b.ReportMetric(flat, "flat-volt-impr-%")
}

// BenchmarkAblationNoCaches reruns gaussian on a GTX 480 with its caches
// shrunk to nothing: DRAM traffic balloons and the board degenerates toward
// Tesla-like memory-bound behaviour. Reports the (H-H) slowdown and the
// shift of the best memory level toward Mem-H.
func BenchmarkAblationNoCaches(b *testing.B) {
	var slowdown float64
	var bestMemCached, bestMemUncached float64
	run := func(spec *arch.Spec) (time float64, bestMem float64) {
		dev, err := driver.OpenSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		dev.Seed(benchSeed)
		r, err := characterize.SweepBenchmark(dev, workloads.ByName("gaussian"))
		if err != nil {
			b.Fatal(err)
		}
		return r.Default().TimePerIter, float64(r.Best().Pair.Mem)
	}
	for i := 0; i < b.N; i++ {
		tCached, bm := run(arch.GTX480())
		bestMemCached = bm
		spec := arch.GTX480()
		spec.L1PerSM = 1 // effectively no cache, still a valid Fermi spec
		spec.L2Size = 1
		tUncached, bmu := run(spec)
		bestMemUncached = bmu
		slowdown = tUncached / tCached
	}
	b.ReportMetric(slowdown, "nocache-slowdown-x")
	b.ReportMetric(bestMemCached, "cached-best-memlevel")
	b.ReportMetric(bestMemUncached, "nocache-best-memlevel")
}

// BenchmarkAblationSelection compares forward selection against using the
// first k counters verbatim, at equal variable budgets.
func BenchmarkAblationSelection(b *testing.B) {
	var forward, firstK float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)["GTX 480"]
		m, err := core.Train(ds, core.Power, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		forward = m.Evaluate(ds.Rows).MeanAbsPct

		// First-k baseline: regress on counters 0..9 as-is.
		x := make([][]float64, len(ds.Rows))
		y := make([]float64, len(ds.Rows))
		for j := range ds.Rows {
			o := &ds.Rows[j]
			row := make([]float64, core.MaxVariables)
			for k := 0; k < core.MaxVariables; k++ {
				row[k] = o.Counters[k] / o.TimeS
			}
			x[j] = row
			y[j] = o.PowerW
		}
		fit, err := regress.OLS(x, y)
		if err != nil {
			b.Fatal(err)
		}
		pred := make([]float64, len(y))
		for j, row := range x {
			pred[j] = fit.Predict(row)
		}
		firstK = regress.MeanAbsPctError(pred, y)
	}
	b.ReportMetric(forward, "forward-err-%")
	b.ReportMetric(firstK, "firstk-err-%")
}

func sweepImprovement(b *testing.B, spec *arch.Spec, bench string) float64 {
	b.Helper()
	dev, err := driver.OpenSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	dev.Seed(benchSeed)
	r, err := characterize.SweepBenchmark(dev, workloads.ByName(bench))
	if err != nil {
		b.Fatal(err)
	}
	return r.ImprovementPct()
}

// BenchmarkFutureWorkRadeon exercises the paper's proposed future work:
// the whole characterization pipeline on an AMD GCN board (Radeon HD
// 7970), reporting its backprop best-pair gain next to Kepler's.
func BenchmarkFutureWorkRadeon(b *testing.B) {
	var radeon, kepler float64
	for i := 0; i < b.N; i++ {
		radeon = sweepImprovement(b, arch.RadeonHD7970(), "backprop")
		kepler = sweepImprovement(b, arch.GTX680(), "backprop")
	}
	b.ReportMetric(radeon, "radeon-impr-%")
	b.ReportMetric(kepler, "kepler-impr-%")
}

// BenchmarkExtensionCrossValidation measures the unified models' error on
// benchmarks they never saw (leave-one-benchmark-out) — the number a
// deployed predictor actually faces, next to the paper's in-sample errors.
func BenchmarkExtensionCrossValidation(b *testing.B) {
	var powerCV, timeCV float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)["GTX 680"]
		pcv, err := core.CrossValidate(ds, core.Power, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		tcv, err := core.CrossValidate(ds, core.Time, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		powerCV = pcv.MeanAbsPct
		timeCV = tcv.MeanAbsPct
	}
	b.ReportMetric(powerCV, "power-cv-err-%")
	b.ReportMetric(timeCV, "time-cv-err-%")
}

// BenchmarkExtensionThermal runs the thermal extension over a sustained
// metered trace: the leaky GF100 (GTX 480) heats far past the efficient
// Kepler under the same workload pressure, adding measurable leakage
// energy.
func BenchmarkExtensionThermal(b *testing.B) {
	var hot480, hot680, extra480 float64
	run := func(board string) (maxC, extraJ float64) {
		dev, err := driver.OpenBoard(board)
		if err != nil {
			b.Fatal(err)
		}
		dev.Seed(benchSeed)
		w := workloads.ByName("lavaMD")
		rr, err := dev.RunMetered(w.Name, w.Kernels(4), w.HostGap(4), 60)
		if err != nil {
			b.Fatal(err)
		}
		params := thermal.DefaultParams(dev.Spec().CoreLeakWatts)
		res, err := thermal.Simulate(rr.Trace.Flatten(), params, params.AmbientC)
		if err != nil {
			b.Fatal(err)
		}
		return res.MaxC, res.ExtraLeakJoules
	}
	for i := 0; i < b.N; i++ {
		hot480, extra480 = run("GTX 480")
		hot680, _ = run("GTX 680")
	}
	b.ReportMetric(hot480, "GTX480-maxC")
	b.ReportMetric(hot680, "GTX680-maxC")
	b.ReportMetric(extra480, "GTX480-extra-leak-J")
}

// BenchmarkExtensionMicrosimValidation cross-checks the interval model
// against the warp-level microsimulator on single-phase Table II kernels,
// reporting the worst time ratio across the validation corpus.
func BenchmarkExtensionMicrosimValidation(b *testing.B) {
	var worst float64
	corpus := []string{"sgemm", "lbm", "stencil", "mri-q", "nn"}
	for i := 0; i < b.N; i++ {
		dev, err := driver.OpenBoard("GTX 680")
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, name := range corpus {
			k := workloads.ByName(name).Kernels(0.05)[0] // small grids: micro is per-instruction
			lr, err := dev.Launch(k)
			if err != nil {
				b.Fatal(err)
			}
			mr, err := dev.MicroSim(k)
			if err != nil {
				b.Fatal(err)
			}
			ratio := mr.Time / lr.Time
			if ratio < 1 {
				ratio = 1 / ratio
			}
			if ratio > worst {
				worst = ratio
			}
		}
	}
	b.ReportMetric(worst, "worst-ratio-x")
}

// BenchmarkAblationRidge compares forward selection (10 variables) against
// all-variables ridge regression — shrinkage instead of selection — on the
// GTX 680 power model. Ridge uses every counter; selection uses ten.
func BenchmarkAblationRidge(b *testing.B) {
	var forward, ridge float64
	for i := 0; i < b.N; i++ {
		ds := datasets(b)["GTX 680"]
		m, err := core.Train(ds, core.Power, core.MaxVariables)
		if err != nil {
			b.Fatal(err)
		}
		forward = m.Evaluate(ds.Rows).MeanAbsPct
		_, r, err := core.RidgeError(ds, core.Power, 1e3)
		if err != nil {
			b.Fatal(err)
		}
		ridge = r
	}
	b.ReportMetric(forward, "forward10-err-%")
	b.ReportMetric(ridge, "ridge-all-err-%")
}

// BenchmarkReproduce runs the complete paper reproduction — every table,
// figure, ablation and the future-work extension — end to end, exactly as
// cmd/paper does. This is the PR-acceptance wall-clock benchmark; the
// before/after numbers live in BENCH_baseline.json.
func BenchmarkReproduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := reproduce.DefaultOptions()
		if _, err := reproduce.RunContext(context.Background(), opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepBoard is the multi-core scaling curve of the batched sweep:
// one board's full Table IV frequency sweep at 1, 2, 4 and 8 workers.
// Every sweep job boots its own device, so each iteration pays the same
// batched PrecomputePairs fill; the recorded curves live in
// BENCH_fleet.json. On a single-CPU host the curve is flat — the bench
// then measures the pooling overhead of widening the worker pool.
func BenchmarkSweepBoard(b *testing.B) {
	benches := workloads.Table4()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := characterize.Sweep(context.Background(), []string{"GTX 480"}, benches,
					characterize.SweepOptions{Seed: benchSeed, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
