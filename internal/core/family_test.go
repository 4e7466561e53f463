package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/regress"
	"gpuperf/internal/workloads"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffSelection names the first field in which two selections differ
// bit for bit, or returns "".
func diffSelection(got, want *regress.Selection) string {
	if len(got.Indices) != len(want.Indices) || len(got.Steps) != len(want.Steps) {
		return "lengths"
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			return "Indices"
		}
	}
	for i, w := range want.Steps {
		g := got.Steps[i]
		if g.Added != w.Added || !sameBits(g.AdjR2, w.AdjR2) || !sameBits(g.R2, w.R2) {
			return "Steps"
		}
	}
	gf, wf := got.Fit, want.Fit
	if gf.N != wf.N || gf.P != wf.P || !sameBits(gf.Intercept, wf.Intercept) ||
		!sameBits(gf.R2, wf.R2) || !sameBits(gf.AdjR2, wf.AdjR2) ||
		len(gf.Coef) != len(wf.Coef) || len(gf.Residuals) != len(wf.Residuals) {
		return "Fit"
	}
	for i := range wf.Coef {
		if !sameBits(gf.Coef[i], wf.Coef[i]) {
			return "Fit.Coef"
		}
	}
	for i := range wf.Residuals {
		if !sameBits(gf.Residuals[i], wf.Residuals[i]) {
			return "Fit.Residuals"
		}
	}
	return ""
}

// TestFamilyMatchesForwardSelect: on the seed-42 modeling collection of
// every board, for both kinds, the cap-k model of one 20-step family is
// ForwardSelect(x, y, k) over the same row-major design bit for bit, for
// every k, and every Figs. 7/8 point of the family's Sweep has that
// selection's adjusted R² and its mean |error|% over the design's
// projected rows (Fit.Predict) to the last bit.
func TestFamilyMatchesForwardSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("collects the full modeling set of every board; skipped with -short")
	}
	ctx := context.Background()
	for _, spec := range arch.AllBoards() {
		ds, err := CollectCtx(ctx, spec.Name, workloads.ModelingSet(), CollectOptions{Seed: 42, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []Kind{Power, Time} {
			f, err := NewFamily(ctx, ds, kind, SweepMaxVars)
			if err != nil {
				t.Fatal(err)
			}
			points, err := f.Sweep(SweepMinVars, SweepMaxVars)
			if err != nil {
				t.Fatal(err)
			}
			if want := SweepMaxVars - SweepMinVars + 1; len(points) != want {
				t.Fatalf("%s %s: sweep has %d points, want %d", spec.Name, kind, len(points), want)
			}
			x, y := designMatrix(kind, ds.Set, ds.Rows)
			pred := make([]float64, len(x))
			for k := 1; k <= SweepMaxVars; k++ {
				want, err := regress.ForwardSelect(x, y, k)
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.Model(k)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffSelection(got.Selection, want); d != "" {
					t.Fatalf("%s %s cap %d: %s differs", spec.Name, kind, k, d)
				}
				if k < SweepMinVars {
					continue
				}
				for i, row := range regress.Project(x, want.Indices) {
					pred[i] = want.Fit.Predict(row)
				}
				pt := points[k-SweepMinVars]
				if pt.Vars != k || !sameBits(pt.AdjR2, want.Fit.AdjR2) ||
					!sameBits(pt.MeanAbsPct, regress.MeanAbsPctError(pred, y)) {
					t.Fatalf("%s %s: sweep point %+v differs from ForwardSelect at cap %d", spec.Name, kind, pt, k)
				}
			}
		}
	}
}

// TestFamilyHoldsOneDesign: a family reads its design column by column
// into the path's one working copy, so growing it on the seed-42 GTX 680
// modeling set allocates under 1.6 designs of n×p float64s. Holding the
// design row by row as well, as a family once did, costs about 2.5.
func TestFamilyHoldsOneDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("collects the GTX 680 modeling set; skipped with -short")
	}
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	ctx := context.Background()
	ds, err := CollectCtx(ctx, "GTX 680", workloads.ModelingSet(), CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	design := float64(len(ds.Rows) * ds.Set.Len() * 8)
	var before, after runtime.MemStats
	// Empty the matrix and factorization pools to count a cold family: a
	// pooled item survives one collection, so it takes two.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := NewFamily(ctx, ds, Power, SweepMaxVars)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(f)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got >= 1.6*design {
		t.Errorf("NewFamily allocated %.0f KB, %.2f designs of %d×%d; want under 1.6",
			got/1024, got/design, len(ds.Rows), ds.Set.Len())
	}
}

// TestFamilyReleaseRecycles: a released family returns its [1, picks]
// design and QR workspace to their pools, so the next family over the
// same set allocates neither. On the seed-42 GTX 680 modeling set that
// is about 0.4 of a design of n×p float64s below a cold family.
func TestFamilyReleaseRecycles(t *testing.T) {
	if testing.Short() {
		t.Skip("collects the GTX 680 modeling set; skipped with -short")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	ctx := context.Background()
	ds, err := CollectCtx(ctx, "GTX 680", workloads.ModelingSet(), CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	design := float64(len(ds.Rows) * ds.Set.Len() * 8)
	family := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := NewFamily(ctx, ds, Power, SweepMaxVars)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	runtime.GC() // two collections empty the pools, as above
	runtime.GC()
	cold := family()
	// Take the best of three: a collection between two families may
	// empty the pools again.
	warm := math.Inf(1)
	for i := 0; i < 3; i++ {
		warm = min(warm, family())
	}
	t.Logf("cold family %.2f designs, after a release %.2f", cold/design, warm/design)
	if cold-warm < 0.3*design {
		t.Errorf("a family after a release allocated %.0f KB, a cold one %.0f KB; want at least 0.3 designs (%.0f KB) recycled",
			warm/1024, cold/1024, 0.3*design/1024)
	}
}

// BenchmarkFamily times one (board, kind) family as a reproduction fits
// it: the GTX 680 power design, one 20-step path, the 10-variable model
// and the Figs. 7/8 sweep read off it.
func BenchmarkFamily(b *testing.B) {
	ctx := context.Background()
	ds, err := CollectCtx(ctx, "GTX 680", workloads.ModelingSet(), CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := NewFamily(ctx, ds, Power, SweepMaxVars)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Model(MaxVariables); err != nil {
			b.Fatal(err)
		}
		points, err := f.Sweep(SweepMinVars, SweepMaxVars)
		if err != nil {
			b.Fatal(err)
		}
		sweepSink = points
	}
}

// sweepSink keeps BenchmarkFamily's result live.
var sweepSink []SweepPoint
