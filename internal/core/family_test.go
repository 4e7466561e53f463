package core

import (
	"context"
	"math"
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
// ForwardSelect(x, y, k) over the same design bit for bit, for every k.
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
			x, y := designMatrix(kind, ds.Set, ds.Rows)
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
			}
		}
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
