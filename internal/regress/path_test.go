package regress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// correlatedDesign draws n rows of p columns built from a few shared
// latent factors, as performance counters are, with one all-zero column
// and one column duplicating another; y depends on a handful of columns.
func correlatedDesign(rng *rand.Rand, n, p int) (x [][]float64, y []float64) {
	const factors = 4
	mix := make([][factors]float64, p)
	for j := range mix {
		for f := range mix[j] {
			mix[j][f] = rng.NormFloat64()
		}
	}
	for i := 0; i < n; i++ {
		var lat [factors]float64
		for f := range lat {
			lat[f] = rng.NormFloat64()
		}
		row := make([]float64, p)
		for j := range row {
			for f, l := range lat {
				row[j] += mix[j][f] * l
			}
			row[j] = row[j]*float64(1+j%5) + 0.2*rng.NormFloat64()
		}
		row[3] = 0
		row[7] = row[2]
		x = append(x, row)
		y = append(y, 3*row[1]-2*row[5]+row[11]+0.5*row[2]+rng.NormFloat64())
	}
	return x, y
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameFit reports the first field in which two fits differ bit for bit.
func sameFit(got, want *Fit) error {
	switch {
	case got.N != want.N || got.P != want.P:
		return errors.New("N/P differ")
	case !sameBits(got.Intercept, want.Intercept):
		return errors.New("Intercept differs")
	case !sameBits(got.R2, want.R2) || !sameBits(got.AdjR2, want.AdjR2):
		return errors.New("R2/AdjR2 differ")
	case len(got.Coef) != len(want.Coef) || len(got.Residuals) != len(want.Residuals):
		return errors.New("Coef/Residuals lengths differ")
	}
	for i := range want.Coef {
		if !sameBits(got.Coef[i], want.Coef[i]) {
			return errors.New("Coef differs")
		}
	}
	for i := range want.Residuals {
		if !sameBits(got.Residuals[i], want.Residuals[i]) {
			return errors.New("Residuals differ")
		}
	}
	return nil
}

// sameSelection reports the first field in which two selections differ
// bit for bit.
func sameSelection(got, want *Selection) error {
	if len(got.Indices) != len(want.Indices) || len(got.Steps) != len(want.Steps) {
		return errors.New("lengths differ")
	}
	for i := range want.Indices {
		if got.Indices[i] != want.Indices[i] {
			return errors.New("Indices differ")
		}
	}
	for i, w := range want.Steps {
		g := got.Steps[i]
		if g.Added != w.Added || !sameBits(g.AdjR2, w.AdjR2) || !sameBits(g.R2, w.R2) {
			return errors.New("Steps differ")
		}
	}
	return sameFit(got.Fit, want.Fit)
}

// TestCapSelectionMatchesForwardSelect: the cap-k selection of one
// 20-step path is ForwardSelect(x, y, k) bit for bit for every k, and its
// refit is OLS over the projected columns bit for bit.
func TestCapSelectionMatchesForwardSelect(t *testing.T) {
	x, y := correlatedDesign(rand.New(rand.NewSource(21)), 240, 36)
	path, err := ForwardPath(context.Background(), len(x[0]), rowColumns(x), y, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Indices) != 20 {
		t.Fatalf("path has %d picks, want 20", len(path.Indices))
	}
	for k := 1; k <= 20; k++ {
		want, err := ForwardSelect(x, y, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := path.Select(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSelection(got, want); err != nil {
			t.Fatalf("cap %d: %v", k, err)
		}
		ref, err := OLS(Project(x, want.Indices), y)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFit(got.Fit, ref); err != nil {
			t.Fatalf("cap %d: refit vs OLS: %v", k, err)
		}
	}
	if _, err := path.Select(21); err == nil {
		t.Error("a 20-step path answered cap 21")
	}
}

// referencePath is the greedy loop with a separate candidate scan per
// step and every candidate projected after every pick, as it ran before
// the scan was fused into the projection pass.
func referencePath(x [][]float64, y []float64, maxSteps int) []Step {
	n, p := len(x), len(x[0])
	cols := make([][]float64, p)
	norm0 := make([]float64, p)
	for j := range cols {
		w := make([]float64, n)
		var mean float64
		for i, row := range x {
			w[i] = row[j]
			mean += row[j]
		}
		mean /= float64(n)
		for i := range w {
			w[i] -= mean
			norm0[j] += w[i] * w[i]
		}
		cols[j] = w
	}
	var ymean float64
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(n)
	t := make([]float64, n)
	var ssTot float64
	for i, v := range y {
		t[i] = v - ymean
		ssTot += t[i] * t[i]
	}
	var steps []Step
	used := make([]bool, p)
	for k := 0; k < maxSteps && k < p && n > k+2; k++ {
		bestJ, bestGain := -1, 0.0
		for j, w := range cols {
			if used[j] || norm0[j] == 0 {
				continue
			}
			var dot, ww float64
			for i, wi := range w {
				dot += wi * t[i]
				ww += wi * wi
			}
			if ww <= 1e-10*norm0[j] {
				continue
			}
			if gain := dot * dot / ww; bestJ < 0 || gain > bestGain {
				bestJ, bestGain = j, gain
			}
		}
		if bestJ < 0 {
			break
		}
		u := cols[bestJ]
		var uu, ut float64
		for i, v := range u {
			uu += v * v
			ut += v * t[i]
		}
		invUU := 1 / uu
		c := ut * invUU
		for i, v := range u {
			t[i] -= c * v
		}
		used[bestJ] = true
		for j, w := range cols {
			if used[j] || norm0[j] == 0 {
				continue
			}
			var uw float64
			for i, v := range u {
				uw += v * w[i]
			}
			cj := uw * invUU
			for i, v := range u {
				w[i] -= cj * v
			}
		}
		var rss float64
		for _, v := range t {
			rss += v * v
		}
		r2 := 1 - rss/ssTot
		adj := 1 - (1-r2)*float64(n-1)/float64(n-k-2)
		steps = append(steps, Step{Added: bestJ, AdjR2: adj, R2: r2})
	}
	return steps
}

// TestFusedScanMatchesSeparateScan: fusing the candidate scan into the
// projection pass, and reusing the pick's scanned w·t and ‖w‖², leaves
// every pick and every R² of the path unchanged to the last bit.
func TestFusedScanMatchesSeparateScan(t *testing.T) {
	x, y := correlatedDesign(rand.New(rand.NewSource(23)), 240, 36)
	path, err := ForwardPath(context.Background(), len(x[0]), rowColumns(x), y, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePath(x, y, 20)
	if len(path.Steps) != len(want) {
		t.Fatalf("path has %d steps, reference %d", len(path.Steps), len(want))
	}
	for k, w := range want {
		g := path.Steps[k]
		if g.Added != w.Added || !sameBits(g.R2, w.R2) || !sameBits(g.AdjR2, w.AdjR2) {
			t.Fatalf("step %d: got %+v, reference %+v", k+1, g, w)
		}
	}
}

// TestForwardPathCancelled: a dead context stops the path before its
// first step, with the cause wrapped.
func TestForwardPathCancelled(t *testing.T) {
	x, y := correlatedDesign(rand.New(rand.NewSource(22)), 40, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ForwardPath(ctx, len(x[0]), rowColumns(x), y, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForwardPath returned %v, want context.Canceled in the chain", err)
	}
}

// BenchmarkForwardSelect times forward selection at the shape of the
// widest Section IV design (~800 observations, 108 correlated counter
// columns) at the paper's 10-variable cap and the sweep's 20.
func BenchmarkForwardSelect(b *testing.B) {
	x, y := correlatedDesign(rand.New(rand.NewSource(1)), 798, 108)
	for _, maxVars := range []int{10, 20} {
		b.Run(fmt.Sprintf("cap=%d", maxVars), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sel, err := ForwardSelect(x, y, maxVars)
				if err != nil {
					b.Fatal(err)
				}
				selectionSink = sel
			}
		})
	}
}

// selectionSink keeps BenchmarkForwardSelect's result live.
var selectionSink *Selection
