package gpu_test

import (
	"math"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// allKernels returns every distinct kernel description the campaign
// stack can launch: the full benchmark suite at its default scale plus
// the modeling set's extra scales.
func allKernels(t *testing.T) []*gpu.KernelDesc {
	t.Helper()
	seen := map[string]bool{}
	var out []*gpu.KernelDesc
	add := func(ks []*gpu.KernelDesc) {
		for _, k := range ks {
			key := k.Name + "|" + string(rune(k.Blocks))
			if !seen[key] {
				seen[key] = true
				out = append(out, k)
			}
		}
	}
	for _, b := range workloads.All() {
		add(b.Kernels(1))
	}
	for _, b := range workloads.ModelingSet() {
		sizes := b.Sizes
		if len(sizes) == 0 {
			sizes = []float64{1}
		}
		for _, s := range sizes {
			add(b.Kernels(s))
		}
	}
	if len(out) == 0 {
		t.Fatal("no kernels found")
	}
	return out
}

// TestRunPairsBitIdenticalToRunKernel is the model-equivalence property:
// for every board, every kernel of the workload suite, and every
// BIOS-exposed frequency pair, the batched path (RunPairs) and the
// per-launch paths (RunKernel, and RunKernelInto into one result reused
// across every kernel and pair) must reproduce the frozen uncompiled
// reference bit for bit — time, per-phase durations, bottlenecks,
// events, and the full activity vector. The seed-42 golden artifacts
// encode these floats, so "close" is not enough; comparisons use exact
// bit patterns.
func TestRunPairsBitIdenticalToRunKernel(t *testing.T) {
	kernels := allKernels(t)
	var into gpu.KernelResult
	for _, spec := range arch.AllBoards() {
		pairs := clock.ValidPairs(spec)
		clk := clock.NewState(spec)
		sim := gpu.New(spec, clk)
		for _, k := range kernels {
			ck, err := sim.Compile(k)
			if err != nil {
				t.Fatalf("%s/%s: Compile: %v", spec.Name, k.Name, err)
			}
			batched, err := sim.RunPairs(ck, pairs)
			if err != nil {
				t.Fatalf("%s/%s: RunPairs: %v", spec.Name, k.Name, err)
			}
			if clk.Pair() != clock.DefaultPair() {
				t.Fatalf("%s/%s: RunPairs moved the simulator clock to %s", spec.Name, k.Name, clk.Pair())
			}
			for pi, p := range pairs {
				if err := clk.SetPair(p); err != nil {
					t.Fatal(err)
				}
				want, err := gpu.ReferenceRunKernel(sim, k)
				if err != nil {
					t.Fatalf("%s/%s@%s: reference: %v", spec.Name, k.Name, p, err)
				}
				compareResults(t, spec.Name, k.Name, p, batched[pi], want)

				got, err := sim.RunKernel(k)
				if err != nil {
					t.Fatalf("%s/%s@%s: RunKernel: %v", spec.Name, k.Name, p, err)
				}
				compareResults(t, spec.Name, k.Name, p, got, want)

				if err := sim.RunKernelInto(k, &into); err != nil {
					t.Fatalf("%s/%s@%s: RunKernelInto: %v", spec.Name, k.Name, p, err)
				}
				compareResults(t, spec.Name, k.Name, p, &into, want)
			}
			if err := clk.SetPair(clock.DefaultPair()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAnalyzeMatchesRunKernel holds Analyze to RunKernel and to the
// frozen reference: the analysis time is RunKernel's time, and every
// phase's duration, bottleneck and resource usages — their count, order,
// Time and Fraction — equal the reference's in exact bits, for every
// board × workload kernel × valid pair.
func TestAnalyzeMatchesRunKernel(t *testing.T) {
	kernels := allKernels(t)
	analyses := 0
	for _, spec := range arch.AllBoards() {
		clk := clock.NewState(spec)
		sim := gpu.New(spec, clk)
		for _, p := range clock.ValidPairs(spec) {
			if err := clk.SetPair(p); err != nil {
				t.Fatal(err)
			}
			for _, k := range kernels {
				an, err := sim.Analyze(k)
				if err != nil {
					t.Fatalf("%s/%s@%s: Analyze: %v", spec.Name, k.Name, p, err)
				}
				run, err := sim.RunKernel(k)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(an.Time) != math.Float64bits(run.Time) {
					t.Fatalf("%s/%s@%s: Analyze time %g != RunKernel time %g", spec.Name, k.Name, p, an.Time, run.Time)
				}
				if len(an.Phases) != len(k.Phases) {
					t.Fatalf("%s/%s@%s: %d phase analyses, want %d", spec.Name, k.Name, p, len(an.Phases), len(k.Phases))
				}
				want, err := gpu.ReferenceAnalyze(sim, k)
				if err != nil {
					t.Fatal(err)
				}
				compareAnalyses(t, spec.Name+"/"+k.Name+"@"+p.String(), an, want)
				analyses += len(an.Phases)
			}
		}
	}
	t.Logf("%d phase analyses bit-identical to the reference", analyses)
}

func compareAnalyses(t *testing.T, where string, got, want *gpu.KernelAnalysis) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Kernel != want.Kernel || got.BlocksPerSM != want.BlocksPerSM || got.Warps != want.Warps ||
		!same(got.Time, want.Time) || !same(got.Occupancy, want.Occupancy) || len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: analysis header %+v, want %+v", where, *got, *want)
	}
	for i := range got.Phases {
		g, w := &got.Phases[i], &want.Phases[i]
		if g.Phase != w.Phase || g.Bottleneck != w.Bottleneck || !same(g.Duration, w.Duration) {
			t.Fatalf("%s phase %d: (%q, %v, %q), want (%q, %v, %q)",
				where, i, g.Phase, g.Duration, g.Bottleneck, w.Phase, w.Duration, w.Bottleneck)
		}
		if len(g.Usages) != len(w.Usages) {
			t.Fatalf("%s phase %s: %d usages, want %d", where, g.Phase, len(g.Usages), len(w.Usages))
		}
		for u := range g.Usages {
			gu, wu := g.Usages[u], w.Usages[u]
			if gu.Resource != wu.Resource || !same(gu.Time, wu.Time) || !same(gu.Fraction, wu.Fraction) {
				t.Fatalf("%s phase %s usage %d: %+v (%#x, %#x), want %+v (%#x, %#x)", where, g.Phase, u,
					gu, math.Float64bits(gu.Time), math.Float64bits(gu.Fraction),
					wu, math.Float64bits(wu.Time), math.Float64bits(wu.Fraction))
			}
		}
	}
}

func compareResults(t *testing.T, board, kernel string, p clock.Pair, got, want *gpu.KernelResult) {
	t.Helper()
	fail := func(field string, g, w float64) {
		t.Fatalf("%s/%s@%s: %s = %v (%#x), want %v (%#x)",
			board, kernel, p, field, g, math.Float64bits(g), w, math.Float64bits(w))
	}
	if got.Kernel != want.Kernel {
		t.Fatalf("%s/%s@%s: kernel name %q != %q", board, kernel, p, got.Kernel, want.Kernel)
	}
	if math.Float64bits(got.Time) != math.Float64bits(want.Time) {
		fail("Time", got.Time, want.Time)
	}
	if math.Float64bits(got.Occupancy) != math.Float64bits(want.Occupancy) {
		fail("Occupancy", got.Occupancy, want.Occupancy)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s/%s@%s: %d phases, want %d", board, kernel, p, len(got.Phases), len(want.Phases))
	}
	for i := range got.Phases {
		g, w := &got.Phases[i], &want.Phases[i]
		if g.Name != w.Name || g.Bottleneck != w.Bottleneck {
			t.Fatalf("%s/%s@%s phase %d: (%q bound by %q), want (%q bound by %q)",
				board, kernel, p, i, g.Name, g.Bottleneck, w.Name, w.Bottleneck)
		}
		if math.Float64bits(g.Duration) != math.Float64bits(w.Duration) {
			fail("phase "+g.Name+" Duration", g.Duration, w.Duration)
		}
		if math.Float64bits(g.EnergyScale) != math.Float64bits(w.EnergyScale) {
			fail("phase "+g.Name+" EnergyScale", g.EnergyScale, w.EnergyScale)
		}
		if g.Events != w.Events {
			t.Fatalf("%s/%s@%s phase %s: events %+v, want %+v", board, kernel, p, g.Name, g.Events, w.Events)
		}
	}
	for i := range got.Activities {
		g, w := got.Activities[i], want.Activities[i]
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s/%s@%s: activity[%d] = %v (%#x), want %v (%#x)",
				board, kernel, p, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestRunPairsSpecMismatch pins the cross-board safety check.
func TestRunPairsSpecMismatch(t *testing.T) {
	boards := arch.AllBoards()
	if len(boards) < 2 {
		t.Skip("needs two boards")
	}
	k := workloads.Table4()[0].Kernels(1)[0]
	simA := gpu.New(boards[0], clock.NewState(boards[0]))
	simB := gpu.New(boards[1], clock.NewState(boards[1]))
	ck, err := simA.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simB.RunPairs(ck, clock.ValidPairs(boards[1])); err == nil {
		t.Fatal("RunPairs accepted a kernel compiled for another board")
	}
}

// TestRunKernelAllocs pins the per-launch cost of compiling on every
// call: the compiled kernel with its phase and bound storage, plus the
// result struct and its phase slice.
// The budget is flat, so any per-phase or per-bound garbage fails here
// on the kernels that have the most phases and bounds.
func TestRunKernelAllocs(t *testing.T) {
	const budget = 5
	for _, spec := range arch.AllBoards() {
		sim := gpu.New(spec, clock.NewState(spec))
		for _, k := range allKernels(t) {
			if n := testing.AllocsPerRun(20, func() {
				if _, err := sim.RunKernel(k); err != nil {
					t.Fatal(err)
				}
			}); n > budget {
				t.Fatalf("%s/%s: RunKernel allocates %v objects per run, budget %v", spec.Name, k.Name, n, budget)
			}
		}
	}
}

// TestEvalAllocs pins the evaluation half's allocation profile through
// RunPairs: the scratch clock state and the output slice once, then
// exactly the result struct and its phase slice per pair — nothing per
// bound.
func TestEvalAllocs(t *testing.T) {
	spec := arch.AllBoards()[0]
	sim := gpu.New(spec, clock.NewState(spec))
	k := workloads.Table4()[0].Kernels(1)[0]
	ck, err := sim.Compile(k)
	if err != nil {
		t.Fatal(err)
	}
	pairs := clock.ValidPairs(spec)
	budget := float64(2 + 2*len(pairs))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := sim.RunPairs(ck, pairs); err != nil {
			t.Fatal(err)
		}
	}); n > budget {
		t.Fatalf("RunPairs over %d pairs allocates %v objects per run, want at most %v", len(pairs), n, budget)
	}
}
