package gpu

import (
	"strings"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
)

func TestAnalyzeIdentifiesBottlenecks(t *testing.T) {
	spec := arch.GTX480()
	sim := New(spec, clock.NewState(spec))

	an, err := sim.Analyze(computeKernel(8 * spec.SMCount))
	if err != nil {
		t.Fatal(err)
	}
	top := an.Phases[0].Usages[0].Resource
	if top != "alu" && top != "issue" {
		t.Errorf("compute kernel's top resource = %q, want alu or issue", top)
	}

	an, err = sim.Analyze(memoryKernel(8 * spec.SMCount))
	if err != nil {
		t.Fatal(err)
	}
	top = an.Phases[0].Usages[0].Resource
	if top != "dram-bw" && top != "mem-latency" {
		t.Errorf("memory kernel's top resource = %q, want dram-bw or mem-latency", top)
	}
}

func TestAnalyzeUsageFractions(t *testing.T) {
	spec := arch.GTX460()
	sim := New(spec, clock.NewState(spec))
	an, err := sim.Analyze(memoryKernel(8 * spec.SMCount))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range an.Phases {
		if len(p.Usages) == 0 {
			t.Fatal("no usages")
		}
		prev := p.Usages[0].Time
		for _, u := range p.Usages {
			if u.Fraction <= 0 || u.Fraction > 1+1e-9 {
				t.Errorf("resource %s fraction %g out of (0,1]", u.Resource, u.Fraction)
			}
			if u.Time > prev+1e-15 {
				t.Error("usages not sorted descending")
			}
			prev = u.Time
		}
		// The binding resource's bound must be close to (but never above)
		// the duration; the p-norm blend and wave stretch push the actual
		// duration above the max bound.
		if top := p.Usages[0]; top.Fraction > 1+1e-9 || top.Fraction < 0.5 {
			t.Errorf("top resource fraction %g implausible", top.Fraction)
		}
	}
}

func TestAnalyzeBottleneckShiftsWithClocks(t *testing.T) {
	// gaussian-like mixed kernel: at Mem-L the memory side must bind.
	spec := arch.GTX680()
	clk := clock.NewState(spec)
	sim := New(spec, clk)
	mixed := &KernelDesc{
		Name: "mixed", Blocks: 8 * spec.SMCount, ThreadsPerBlock: 256, RegsPerThread: 20,
		Phases: []PhaseDesc{{
			Name: "p", WarpInstsPerWarp: 20000,
			FracALU: 0.5, FracMem: 0.2, FracBranch: 0.04,
			TxnPerMemInst: 1.2, L1Hit: 0.4, L2Hit: 0.5,
			WorkingSetBytes: 1 << 20, MLP: 6, IssueEff: 0.8,
		}},
	}
	if err := clk.SetPair(clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqLow}); err != nil {
		t.Fatal(err)
	}
	an, err := sim.Analyze(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if top := an.Phases[0].Usages[0].Resource; top != "dram-bw" && top != "mem-latency" {
		t.Errorf("at Mem-L the top resource = %q, want a memory-side bound", top)
	}
}

func TestAnalyzeString(t *testing.T) {
	spec := arch.GTX680()
	sim := New(spec, clock.NewState(spec))
	an, err := sim.Analyze(computeKernel(100))
	if err != nil {
		t.Fatal(err)
	}
	s := an.String()
	for _, want := range []string{"compute", "blocks/SM", "phase", "%"} {
		if !strings.Contains(s, want) {
			t.Errorf("analysis string missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzeRejectsBadKernel(t *testing.T) {
	spec := arch.GTX680()
	sim := New(spec, clock.NewState(spec))
	if _, err := sim.Analyze(&KernelDesc{Name: "bad"}); err == nil {
		t.Error("Analyze accepted invalid kernel")
	}
}
