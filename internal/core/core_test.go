package core

import (
	"context"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
	"gpuperf/internal/workloads"
)

// smallSet is a fast modeling corpus for unit tests: six benchmarks that
// span the compute↔memory spectrum.
func smallSet() []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, name := range []string{"sgemm", "lbm", "gaussian", "hotspot", "spmv", "binomialOptions"} {
		b := workloads.ByName(name)
		if b == nil {
			panic("missing benchmark " + name)
		}
		out = append(out, b)
	}
	return out
}

func collectSmall(t *testing.T, board string) *Dataset {
	t.Helper()
	ds, err := CollectCtx(context.Background(), board, smallSet(), CollectOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestCollectShape(t *testing.T) {
	ds := collectSmall(t, "GTX 480")
	wantSamples := 0
	for _, b := range smallSet() {
		wantSamples += len(b.Sizes)
	}
	if ds.Samples != wantSamples {
		t.Errorf("Samples = %d, want %d", ds.Samples, wantSamples)
	}
	pairs := len(clock.ValidPairs(ds.Spec))
	if want := wantSamples * pairs; len(ds.Rows) != want {
		t.Errorf("%d rows, want %d (samples × pairs)", len(ds.Rows), want)
	}
	for _, r := range ds.Rows {
		if len(r.Counters) != ds.Set.Len() {
			t.Fatalf("row has %d counters, want %d", len(r.Counters), ds.Set.Len())
		}
		if r.TimeS <= 0 || r.PowerW <= 0 || r.CoreGHz <= 0 || r.MemGHz <= 0 {
			t.Fatalf("row has non-positive measurements: %+v", r)
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	a := collectSmall(t, "GTX 460")
	b := collectSmall(t, "GTX 460")
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range a.Rows {
		if a.Rows[i].PowerW != b.Rows[i].PowerW || a.Rows[i].TimeS != b.Rows[i].TimeS {
			t.Fatalf("row %d differs across identical collections", i)
		}
	}
}

func TestRowsAtPair(t *testing.T) {
	ds := collectSmall(t, "GTX 680")
	rows := ds.RowsAtPair(clock.DefaultPair())
	if len(rows) != ds.Samples {
		t.Errorf("%d rows at (H-H), want %d", len(rows), ds.Samples)
	}
	for _, r := range rows {
		if r.Pair != clock.DefaultPair() {
			t.Errorf("row at wrong pair %s", r.Pair)
		}
	}
}

func TestFeatureRowScaling(t *testing.T) {
	// Eq. 1: power features are rates × domain frequency; Eq. 2: time
	// features are totals / domain frequency.
	set := counters.ForGeneration(arch.Kepler)
	o := &Observation{
		CoreGHz:  1.4,
		MemGHz:   3.0,
		TimeS:    2.0,
		Counters: make([]float64, set.Len()),
	}
	coreIdx := set.Index("inst_executed")        // core event
	memIdx := set.Index("fb_subp0_read_sectors") // memory event
	o.Counters[coreIdx] = 100
	o.Counters[memIdx] = 50

	if got, want := featureAt(Power, set, o, coreIdx), 100/2.0*1.4; got != want {
		t.Errorf("power feature (core) = %g, want %g", got, want)
	}
	if got, want := featureAt(Power, set, o, memIdx), 50/2.0*3.0; got != want {
		t.Errorf("power feature (mem) = %g, want %g", got, want)
	}
	if got, want := featureAt(Time, set, o, coreIdx), 100/1.4; got != want {
		t.Errorf("time feature (core) = %g, want %g", got, want)
	}
	if got, want := featureAt(Time, set, o, memIdx), 50/3.0; got != want {
		t.Errorf("time feature (mem) = %g, want %g", got, want)
	}
}

func TestTrainBothModels(t *testing.T) {
	ds := collectSmall(t, "GTX 480")
	for _, kind := range []Kind{Power, Time} {
		m, err := Train(ds, kind, MaxVariables)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if n := len(m.Selection.Indices); n == 0 || n > MaxVariables {
			t.Errorf("%v: selected %d variables, want 1..%d", kind, n, MaxVariables)
		}
		if r2 := m.AdjR2(); r2 <= 0 || r2 > 1 {
			t.Errorf("%v: AdjR2 = %g out of (0,1]", kind, r2)
		}
		if vars := m.Variables(); len(vars) != len(m.Selection.Indices) {
			t.Errorf("%v: Variables() length mismatch", kind)
		}
		ev := m.Evaluate(ds.Rows)
		if ev.MeanAbsPct <= 0 || ev.MeanAbsRaw <= 0 {
			t.Errorf("%v: degenerate evaluation %+v", kind, ev)
		}
	}
}

func TestTrainEmptyDatasetFails(t *testing.T) {
	ds := &Dataset{Board: "x", Set: counters.ForGeneration(arch.Kepler)}
	if _, err := Train(ds, Power, 5); err == nil {
		t.Error("Train on empty dataset should fail")
	}
}

func TestPredictMatchesEvaluate(t *testing.T) {
	ds := collectSmall(t, "GTX 460")
	m, err := Train(ds, Power, 5)
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Evaluate(ds.Rows[:1])
	o := ds.Rows[0]
	pred := m.Predict(&o)
	wantPct := abs(pred-o.PowerW) / o.PowerW * 100
	if abs(ev.MeanAbsPct-wantPct) > 1e-9 {
		t.Errorf("Evaluate pct %g vs direct %g", ev.MeanAbsPct, wantPct)
	}
}

func TestPerBenchmarkErrorsSortedAndComplete(t *testing.T) {
	ds := collectSmall(t, "GTX 680")
	m, err := Train(ds, Time, MaxVariables)
	if err != nil {
		t.Fatal(err)
	}
	errs := m.PerBenchmarkErrors(ds.Rows)
	if len(errs) != len(smallSet()) {
		t.Fatalf("%d benchmark errors, want %d", len(errs), len(smallSet()))
	}
	for i := 1; i < len(errs); i++ {
		if errs[i].MeanPct < errs[i-1].MeanPct {
			t.Error("per-benchmark errors not sorted ascending")
		}
	}
}

func TestVariableSweepImproves(t *testing.T) {
	ds := collectSmall(t, "GTX 480")
	points, err := VariableSweep(context.Background(), ds, Power, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("sweep returned %d points", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if first.Vars != 2 {
		t.Errorf("sweep starts at %d vars, want 2", first.Vars)
	}
	if last.MeanAbsPct > first.MeanAbsPct*1.05 {
		t.Errorf("error grew along the sweep: %g%% → %g%%", first.MeanAbsPct, last.MeanAbsPct)
	}
}

func TestPerPairComparisonLayout(t *testing.T) {
	ds := collectSmall(t, "GTX 680")
	cols, err := PerPairComparison(ds, Power, 5)
	if err != nil {
		t.Fatal(err)
	}
	pairs := clock.ValidPairs(ds.Spec)
	if len(cols) != len(pairs)+1 {
		t.Fatalf("%d columns, want %d", len(cols), len(pairs)+1)
	}
	if cols[0].Label != "(H-H)" || cols[len(cols)-1].Label != "unified" {
		t.Errorf("column labels wrong: first %q last %q", cols[0].Label, cols[len(cols)-1].Label)
	}
	for _, c := range cols {
		b := c.Box
		if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			t.Errorf("%s: box stats out of order: %+v", c.Label, b)
		}
	}
}

func TestInfluencesSumToOne(t *testing.T) {
	ds := collectSmall(t, "GTX 460")
	m, err := Train(ds, Power, 5)
	if err != nil {
		t.Fatal(err)
	}
	infl := m.Influences(ds.Rows)
	if len(infl) != len(m.Selection.Indices)+1 {
		t.Fatalf("%d influences, want %d", len(infl), len(m.Selection.Indices)+1)
	}
	var sum float64
	for _, f := range infl {
		if f.Share < 0 || f.Share > 1 {
			t.Errorf("influence %q share %g out of [0,1]", f.Variable, f.Share)
		}
		sum += f.Share
	}
	if abs(sum-1) > 1e-9 {
		t.Errorf("influence shares sum to %g, want 1", sum)
	}
	if infl[len(infl)-1].Variable != "(intercept)" {
		t.Error("last influence should be the intercept")
	}
}

// TestPaperShapes reproduces Section IV-B's qualitative findings on the
// full 114-sample corpus for the two extreme generations.
func TestPaperShapes(t *testing.T) {
	r2p := map[string]float64{}
	for _, board := range []string{"GTX 285", "GTX 680"} {
		ds, err := CollectAll(board, 42)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Samples != 114 {
			t.Fatalf("%s: %d samples, want 114", board, ds.Samples)
		}
		pm, err := Train(ds, Power, MaxVariables)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := Train(ds, Time, MaxVariables)
		if err != nil {
			t.Fatal(err)
		}
		pe, te := pm.Evaluate(ds.Rows), tm.Evaluate(ds.Rows)

		// Table V vs VI: the performance model's R̄² is far above the
		// power model's.
		if te.AdjR2 < 0.90 {
			t.Errorf("%s: time AdjR2 = %.2f, want ≥ 0.90 as in Table VI", board, te.AdjR2)
		}
		if pe.AdjR2 >= te.AdjR2 {
			t.Errorf("%s: power AdjR2 %.2f not below time AdjR2 %.2f", board, pe.AdjR2, te.AdjR2)
		}
		// Table VII vs VIII: percentage errors are far larger for time
		// than for power, yet absolute power errors stay small (tens of
		// watts at most).
		if te.MeanAbsPct <= pe.MeanAbsPct {
			t.Errorf("%s: time error %.1f%% not above power error %.1f%%", board, te.MeanAbsPct, pe.MeanAbsPct)
		}
		if pe.MeanAbsRaw > 30 {
			t.Errorf("%s: power error %.1f W too large; paper caps at ~24 W", board, pe.MeanAbsRaw)
		}
		r2p[board] = pe.AdjR2
	}
	// The Kepler board's power model has the lowest R̄² (Table V: 0.18).
	if r2p["GTX 680"] >= r2p["GTX 285"] {
		t.Errorf("power AdjR2: GTX 680 (%.2f) should be below GTX 285 (%.2f)", r2p["GTX 680"], r2p["GTX 285"])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestCollectParallelMatchesSequential(t *testing.T) {
	seq, err := CollectCtx(context.Background(), "GTX 460", smallSet(), CollectOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CollectCtx(context.Background(), "GTX 460", smallSet(), CollectOptions{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(par.Rows) || seq.Samples != par.Samples {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", len(seq.Rows), seq.Samples, len(par.Rows), par.Samples)
	}
	for i := range seq.Rows {
		a, b := seq.Rows[i], par.Rows[i]
		if a.Benchmark != b.Benchmark || a.Pair != b.Pair || a.PowerW != b.PowerW || a.TimeS != b.TimeS {
			t.Fatalf("row %d differs between sequential and parallel collection", i)
		}
		for j := range a.Counters {
			if a.Counters[j] != b.Counters[j] {
				t.Fatalf("row %d counter %d differs", i, j)
			}
		}
	}
}
