package characterize

import (
	"context"
	"runtime"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/workloads"
)

// table4 sweeps every Table IV benchmark on every board through one
// GOMAXPROCS-wide worker pool, as Section III of a reproduction does.
func table4(seed int64) (map[string][]*BenchResult, error) {
	var boards []string
	for _, spec := range arch.AllBoards() {
		boards = append(boards, spec.Name)
	}
	return Sweep(context.Background(), boards, workloads.Table4(),
		SweepOptions{Seed: seed, Workers: runtime.GOMAXPROCS(0)})
}

func sweepOne(t *testing.T, board, bench string) *BenchResult {
	t.Helper()
	dev, err := driver.OpenBoard(board)
	if err != nil {
		t.Fatal(err)
	}
	dev.Seed(42)
	b := workloads.ByName(bench)
	if b == nil {
		t.Fatalf("unknown benchmark %q", bench)
	}
	r, err := SweepBenchmark(dev, b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSweepCoversAllValidPairs(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		r := sweepOne(t, spec.Name, "sgemm")
		if len(r.Pairs) != len(clock.ValidPairs(spec)) {
			t.Errorf("%s: swept %d pairs, want %d", spec.Name, len(r.Pairs), len(clock.ValidPairs(spec)))
		}
		if r.Pairs[0].Pair != clock.DefaultPair() {
			t.Errorf("%s: first pair %s, want (H-H)", spec.Name, r.Pairs[0].Pair)
		}
		for _, pr := range r.Pairs {
			if pr.TimePerIter <= 0 || pr.AvgWatts <= 0 || pr.EnergyPerIter <= 0 {
				t.Errorf("%s %s: non-positive measurement %+v", spec.Name, pr.Pair, pr)
			}
		}
	}
}

func TestSweepLeavesDeviceAtDefault(t *testing.T) {
	dev, err := driver.OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SweepBenchmark(dev, workloads.ByName("hotspot")); err != nil {
		t.Fatal(err)
	}
	if dev.Clocks() != clock.DefaultPair() {
		t.Errorf("device left at %s, want (H-H)", dev.Clocks())
	}
}

func TestBestNeverWorseThanDefault(t *testing.T) {
	for _, bench := range []string{"backprop", "streamcluster", "gaussian", "sgemm", "lbm"} {
		for _, spec := range arch.AllBoards() {
			r := sweepOne(t, spec.Name, bench)
			if r.ImprovementPct() < 0 {
				t.Errorf("%s %s: best pair worse than default (%.2f%%)", spec.Name, bench, r.ImprovementPct())
			}
		}
	}
}

func TestFig1BackpropShape(t *testing.T) {
	// Fig. 1: Backprop is compute-intensive on every generation —
	// performance grows with the core clock and is flat across memory
	// clocks; the best pair always uses a reduced memory clock.
	for _, spec := range arch.AllBoards() {
		r := sweepOne(t, spec.Name, "backprop")
		curves := Curves(r, spec)
		for _, c := range curves {
			for i := 1; i < len(c.Points); i++ {
				if c.Points[i].Perf < c.Points[i-1].Perf-1e-9 {
					t.Errorf("%s mem-%s: performance not monotone in core clock", spec.Name, c.MemLevel)
				}
			}
		}
		if best := r.Best(); best.Pair.Mem == arch.FreqHigh {
			t.Errorf("%s: backprop best pair %s keeps Mem-H; the paper finds reduced memory clocks win", spec.Name, best.Pair)
		}
	}
}

func TestFig2StreamclusterShape(t *testing.T) {
	// Fig. 2: Streamcluster is memory-intensive — at Mem-H performance
	// improves with core clock, but dropping the memory clock one level
	// costs a large slice of performance.
	for _, spec := range arch.AllBoards() {
		r := sweepOne(t, spec.Name, "streamcluster")
		hh := r.ByPair(clock.DefaultPair())
		hm := r.ByPair(clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqMid})
		if hh == nil || hm == nil {
			t.Fatalf("%s: missing pairs", spec.Name)
		}
		if hm.TimePerIter < hh.TimePerIter*1.5 {
			t.Errorf("%s: Mem-M only %.2f× slower; streamcluster should be memory-bound",
				spec.Name, hm.TimePerIter/hh.TimePerIter)
		}
		if best := r.Best(); best.Pair.Mem != arch.FreqHigh {
			t.Errorf("%s: streamcluster best %s lowers the memory clock; paper keeps Mem-H", spec.Name, best.Pair)
		}
	}
}

func TestFig4GenerationOrdering(t *testing.T) {
	// Fig. 4's headline: mean best-over-default improvement grows across
	// generations — ~0.8% (GTX 285), ~12% (Fermi), ~24% (GTX 680) —
	// and on the GTX 680 every benchmark prefers a non-default pair.
	all, err := table4(42)
	if err != nil {
		t.Fatal(err)
	}
	means := map[string]float64{}
	for name, res := range all {
		means[name] = MeanImprovementPct(res)
	}
	if !(means["GTX 285"] < means["GTX 460"] && means["GTX 460"] <= means["GTX 480"] && means["GTX 480"] < means["GTX 680"]) {
		t.Errorf("improvement ordering violated: %v", means)
	}
	if means["GTX 285"] > 4 {
		t.Errorf("GTX 285 mean improvement %.1f%% too large; paper reports ~0.8%%", means["GTX 285"])
	}
	if means["GTX 680"] < 15 {
		t.Errorf("GTX 680 mean improvement %.1f%% too small; paper reports ~24%%", means["GTX 680"])
	}
	var nonDefault int
	for _, r := range all["GTX 680"] {
		if r.Best().Pair != clock.DefaultPair() {
			nonDefault++
		}
	}
	if nonDefault != len(all["GTX 680"]) {
		t.Errorf("GTX 680: only %d/%d benchmarks prefer a non-default pair; paper reports all",
			nonDefault, len(all["GTX 680"]))
	}
}

func TestTable4DiversityGrowsWithGeneration(t *testing.T) {
	all, err := table4(42)
	if err != nil {
		t.Fatal(err)
	}
	nonDefault := func(rs []*BenchResult) int {
		n := 0
		for _, r := range rs {
			if r.Best().Pair != clock.DefaultPair() {
				n++
			}
		}
		return n
	}
	if nonDefault(all["GTX 285"]) >= nonDefault(all["GTX 680"]) {
		t.Errorf("best-pair diversity should grow from Tesla (%d) to Kepler (%d)",
			nonDefault(all["GTX 285"]), nonDefault(all["GTX 680"]))
	}
}

func TestKeplerBackpropHeadline(t *testing.T) {
	// The abstract's headline: Kepler achieves by far the deepest energy
	// saving on backprop via a reduced-clock pair, at a tangible
	// performance cost (paper: (M-L), ~30% slower).
	r := sweepOne(t, "GTX 680", "backprop")
	best := r.Best()
	if best.Pair.Core != arch.FreqMid {
		t.Errorf("GTX 680 backprop best %s, want Core-M as in the paper", best.Pair)
	}
	if imp := r.ImprovementPct(); imp < 35 {
		t.Errorf("GTX 680 backprop improvement %.1f%%, want the deep Kepler saving (≥ 35%%)", imp)
	}
	if loss := r.PerfLossPct(); loss < 10 || loss > 40 {
		t.Errorf("GTX 680 backprop perf loss %.1f%%, want ~30%% as in the paper", loss)
	}
	r285 := sweepOne(t, "GTX 285", "backprop")
	if r285.ImprovementPct() >= r.ImprovementPct()/2 {
		t.Errorf("GTX 285 backprop improvement %.1f%% not well below Kepler's %.1f%%",
			r285.ImprovementPct(), r.ImprovementPct())
	}
}

func TestCurvesNormalizedAtDefault(t *testing.T) {
	spec := arch.GTX480()
	r := sweepOne(t, spec.Name, "gaussian")
	curves := Curves(r, spec)
	if len(curves) == 0 {
		t.Fatal("no curves")
	}
	for _, c := range curves {
		if c.MemLevel == arch.FreqHigh {
			last := c.Points[len(c.Points)-1]
			if last.CoreMHz != spec.CoreFreqMHz(arch.FreqHigh) {
				t.Errorf("Mem-H line does not end at Core-H")
			}
			if d := last.Perf - 1; d > 1e-9 || d < -1e-9 {
				t.Errorf("normalized perf at (H-H) = %g, want 1", last.Perf)
			}
			if d := last.Efficiency - 1; d > 1e-9 || d < -1e-9 {
				t.Errorf("normalized efficiency at (H-H) = %g, want 1", last.Efficiency)
			}
		}
	}
}

func TestSweepDeterministicWithSeed(t *testing.T) {
	benches := []*workloads.Benchmark{workloads.ByName("lud")}
	a := sweepBoard(t, "GTX 460", benches, SweepOptions{Seed: 7, Workers: 1})
	b := sweepBoard(t, "GTX 460", benches, SweepOptions{Seed: 7, Workers: 1})
	for i := range a[0].Pairs {
		if a[0].Pairs[i] != b[0].Pairs[i] {
			t.Fatalf("sweep not deterministic at pair %d", i)
		}
	}
}

func TestCurvesRespectSparsePairTables(t *testing.T) {
	// GTX 460 exposes (L-L) but not (L-M)/(L-H): the Mem-L curve gets the
	// Core-L point, the other memory levels only span Core-M..H.
	spec := arch.GTX460()
	r := sweepOne(t, spec.Name, "lud")
	for _, c := range Curves(r, spec) {
		switch c.MemLevel {
		case arch.FreqLow:
			if len(c.Points) != 3 {
				t.Errorf("Mem-L line has %d points, want 3 (L, M, H cores)", len(c.Points))
			}
		default:
			if len(c.Points) != 2 {
				t.Errorf("Mem-%s line has %d points, want 2 (M, H cores)", c.MemLevel, len(c.Points))
			}
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].CoreMHz <= c.Points[i-1].CoreMHz {
				t.Errorf("Mem-%s points not ascending in core MHz", c.MemLevel)
			}
		}
	}
}

func TestPerfLossNonNegativeAcrossTable4(t *testing.T) {
	// Performance at the best-energy pair can never beat (H-H): the
	// quoted loss is always ≥ 0.
	all, err := table4(42)
	if err != nil {
		t.Fatal(err)
	}
	for board, rs := range all {
		for _, r := range rs {
			if r.PerfLossPct() < -1e-9 {
				t.Errorf("%s %s: negative perf loss %.3f%%", board, r.Benchmark, r.PerfLossPct())
			}
		}
	}
}
