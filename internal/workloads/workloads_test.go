package workloads

import (
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
)

func TestTableIICounts(t *testing.T) {
	bySuite := map[Suite]int{}
	for _, b := range All() {
		bySuite[b.Suite]++
	}
	want := map[Suite]int{Rodinia: 18, Parboil: 10, CUDASDK: 6, Matrix: 3}
	for s, n := range want {
		if bySuite[s] != n {
			t.Errorf("%v: %d benchmarks, want %d", s, bySuite[s], n)
		}
	}
	if got := len(All()); got != 37 {
		t.Errorf("%d benchmarks total, want 37", got)
	}
}

func TestTable4Has33Benchmarks(t *testing.T) {
	if got := len(Table4()); got != 33 {
		t.Errorf("Table IV set has %d benchmarks, want 33", got)
	}
	for _, b := range Table4() {
		if b.Suite == Matrix {
			t.Errorf("Table IV should not include matrix kernel %q", b.Name)
		}
	}
}

func TestModelingSetMatchesPaper(t *testing.T) {
	// Section IV-A: everything except backprop, mummergpu, pathfinder
	// and bfs, totalling 114 (benchmark, input-size) samples.
	excluded := map[string]bool{"backprop": true, "mummergpu": true, "pathfinder": true, "bfs": true}
	for _, b := range All() {
		if excluded[b.Name] == b.Modeled {
			t.Errorf("%s: Modeled = %v, want %v", b.Name, b.Modeled, !excluded[b.Name])
		}
		if b.Modeled && len(b.Sizes) == 0 {
			t.Errorf("%s: modeled benchmark has no sizes", b.Name)
		}
		if !b.Modeled && len(b.Sizes) != 0 {
			t.Errorf("%s: excluded benchmark has sizes", b.Name)
		}
	}
	if got := len(ModelingSet()); got != 33 {
		t.Errorf("modeling set has %d benchmarks, want 33", got)
	}
	samples := 0
	for _, b := range ModelingSet() {
		samples += len(b.Sizes)
	}
	if samples != 114 {
		t.Errorf("modeling set has %d (benchmark, input-size) samples, want 114", samples)
	}
}

func TestByName(t *testing.T) {
	for _, b := range All() {
		if got := ByName(b.Name); got != b {
			t.Errorf("ByName(%q) failed", b.Name)
		}
	}
	if ByName("fortnite") != nil {
		t.Error("ByName of unknown benchmark should be nil")
	}
}

func TestAllKernelsValidateOnAllBoards(t *testing.T) {
	for _, b := range All() {
		scales := b.Sizes
		if len(scales) == 0 {
			scales = []float64{1}
		}
		for _, s := range scales {
			for _, k := range b.Kernels(s) {
				if err := k.Validate(); err != nil {
					t.Errorf("%s (scale %g): %v", b.Name, s, err)
				}
			}
		}
	}
}

func TestKernelsScaleWithInput(t *testing.T) {
	for _, b := range All() {
		small := b.Kernels(1)
		large := b.Kernels(4)
		if len(small) != len(large) {
			t.Errorf("%s: kernel count changed with scale", b.Name)
			continue
		}
		for i := range small {
			if large[i].Blocks < small[i].Blocks {
				t.Errorf("%s kernel %d: blocks shrank with scale", b.Name, i)
			}
		}
	}
	// Non-positive scale falls back to 1.
	b := ByName("sgemm")
	if got, want := b.Kernels(-1)[0].Blocks, b.Kernels(1)[0].Blocks; got != want {
		t.Errorf("Kernels(-1) blocks = %d, want %d", got, want)
	}
}

func TestBenchmarksRunOnAllBoards(t *testing.T) {
	// Every benchmark must simulate successfully on every board at the
	// default clocks, with a sane positive runtime.
	for _, spec := range arch.AllBoards() {
		sim := gpu.New(spec, clock.NewState(spec))
		for _, b := range All() {
			var total float64
			for _, k := range b.Kernels(1) {
				res, err := sim.RunKernel(k)
				if err != nil {
					t.Fatalf("%s on %s: %v", b.Name, spec.Name, err)
				}
				total += res.Time
			}
			if total <= 0 || total > 60 {
				t.Errorf("%s on %s: runtime %.3g s implausible", b.Name, spec.Name, total)
			}
		}
	}
}

func TestSpectrumPositioning(t *testing.T) {
	// Sanity-check the paper's anchor benchmarks: Backprop must be
	// compute-bound (insensitive to memory clock), Streamcluster
	// memory-bound (sensitive to it) on every board.
	for _, spec := range arch.AllBoards() {
		clk := clock.NewState(spec)
		sim := gpu.New(spec, clk)
		timeAt := func(b *Benchmark, p clock.Pair) float64 {
			if err := clk.SetPair(p); err != nil {
				t.Fatal(err)
			}
			var total float64
			for _, k := range b.Kernels(1) {
				res, err := sim.RunKernel(k)
				if err != nil {
					t.Fatal(err)
				}
				total += res.Time
			}
			return total
		}
		hh := clock.DefaultPair()
		hl := clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqLow}
		hm := clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqMid}

		bp := ByName("backprop")
		if ratio := timeAt(bp, hl) / timeAt(bp, hh); ratio > 1.25 {
			t.Errorf("%s: backprop slowed %.2f× at Mem-L; want compute-bound", spec.Name, ratio)
		}
		sc := ByName("streamcluster")
		if ratio := timeAt(sc, hm) / timeAt(sc, hh); ratio < 1.5 {
			t.Errorf("%s: streamcluster slowed only %.2f× at Mem-M; want memory-bound", spec.Name, ratio)
		}
	}
}

func TestSuiteSpansTheComputeMemorySpectrum(t *testing.T) {
	// Classify every benchmark by its binding resource at (H-H) on the
	// GTX 480 (the paper's mid-point board). The suite must span the
	// spectrum — that's what makes Table IV's diversity possible — and
	// the well-known anchors must sit on their documented sides.
	spec := arch.GTX480()
	sim := gpu.New(spec, clock.NewState(spec))
	computeSide := map[string]bool{"alu": true, "sfu": true, "dp": true, "issue": true, "shared": true}

	classOf := func(b *Benchmark) string {
		// Classify by the longest-duration kernel's bottleneck.
		var best string
		var bestDur float64
		for _, k := range b.Kernels(1) {
			res, err := sim.RunKernel(k)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			for _, ph := range res.Phases {
				if ph.Duration > bestDur {
					bestDur = ph.Duration
					best = ph.Bottleneck
				}
			}
		}
		return best
	}

	var computeN, memoryN int
	classes := map[string]string{}
	for _, b := range All() {
		c := classOf(b)
		classes[b.Name] = c
		if computeSide[c] {
			computeN++
		} else {
			memoryN++
		}
	}
	if computeN < 8 || memoryN < 8 {
		t.Errorf("spectrum unbalanced: %d compute-side, %d memory-side\n%v", computeN, memoryN, classes)
	}
	for _, name := range []string{"backprop", "sgemm", "binomialOptions", "mri-q", "lavaMD"} {
		if !computeSide[classes[name]] {
			t.Errorf("%s classified %q; expected compute-side", name, classes[name])
		}
	}
	for _, name := range []string{"streamcluster", "lbm", "MAdd", "stencil", "nn"} {
		if computeSide[classes[name]] {
			t.Errorf("%s classified %q; expected memory-side", name, classes[name])
		}
	}
}

func TestHostGapPositiveAndMonotone(t *testing.T) {
	for _, b := range All() {
		g1, g4 := b.HostGap(1), b.HostGap(4)
		if g1 <= 0 {
			t.Errorf("%s: non-positive host gap", b.Name)
		}
		if g4 < g1 {
			t.Errorf("%s: host gap shrank with scale (%g → %g)", b.Name, g1, g4)
		}
		if b.HostGap(-3) != b.HostGap(1) {
			t.Errorf("%s: non-positive scale should fall back to 1", b.Name)
		}
	}
}

func TestActivityFactorsWithinValidatedRange(t *testing.T) {
	for _, b := range All() {
		for _, k := range b.Kernels(1) {
			for _, ph := range k.Phases {
				if ph.ActivityFactor < 0.3 || ph.ActivityFactor > 3 {
					t.Errorf("%s/%s: activity factor %g outside the simulator's accepted range",
						b.Name, k.Name, ph.ActivityFactor)
				}
			}
		}
	}
}
