package gpu

import (
	"fmt"
	"sort"
	"strings"
)

// ResourceUsage reports how close one hardware resource is to binding a
// phase: Time is the lower bound that resource alone imposes, and Fraction
// is that bound relative to the phase's actual duration (1.0 ≈ the binding
// resource; small values ≈ ample headroom).
type ResourceUsage struct {
	Resource string
	Time     float64
	Fraction float64
}

// PhaseAnalysis is the roofline-style breakdown of one phase.
type PhaseAnalysis struct {
	Phase      string
	Duration   float64
	Bottleneck string
	Usages     []ResourceUsage // sorted, most binding first
}

// KernelAnalysis aggregates a kernel's phases.
type KernelAnalysis struct {
	Kernel      string
	Time        float64
	BlocksPerSM int
	Warps       int // resident warps per SM
	Occupancy   float64
	Phases      []PhaseAnalysis
}

// Analyze runs the kernel's bottleneck model at the current DVFS state and
// returns the per-resource breakdown instead of just the binding resource —
// the tool a performance engineer uses to decide whether a kernel will
// respond to core scaling, memory scaling, or neither. It evaluates the
// same CompiledKernel RunKernel does, so Analyze(k).Time ==
// RunKernel(k).Time and every usage's Time is a bound RunKernel folds into
// its phase's duration.
func (s *Sim) Analyze(k *KernelDesc) (*KernelAnalysis, error) {
	ck, err := s.Compile(k)
	if err != nil {
		return nil, err
	}
	res := ck.eval(s.clk)
	out := &KernelAnalysis{
		Kernel:      ck.name,
		Time:        res.Time,
		BlocksPerSM: ck.blocksPerSM,
		Warps:       ck.residentWarps,
		Occupancy:   res.Occupancy,
		Phases:      make([]PhaseAnalysis, 0, len(ck.phases)),
	}
	fc := s.clk.CoreHz()
	for i := range ck.phases {
		ph := &ck.phases[i]
		pa := PhaseAnalysis{
			Phase:      ph.name,
			Duration:   res.Phases[i].Duration,
			Bottleneck: res.Phases[i].Bottleneck,
		}
		// Resource fractions are computed against the model-ideal duration
		// (irregularity factored out): the per-grid timing deviation is by
		// definition not attributable to any resource.
		ideal := pa.Duration / ck.irregular
		for bi := range ph.bounds {
			if t := ph.bounds[bi].time(s.clk, fc); t > 0 {
				pa.Usages = append(pa.Usages, ResourceUsage{
					Resource: ph.bounds[bi].name,
					Time:     t,
					Fraction: t / ideal,
				})
			}
		}
		sort.Slice(pa.Usages, func(a, b int) bool { return pa.Usages[a].Time > pa.Usages[b].Time })
		out.Phases = append(out.Phases, pa)
	}
	return out, nil
}

// String renders the analysis as a compact utilization table.
func (a *KernelAnalysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.3f ms, %d blocks/SM, %d warps/SM (occupancy %.2f)\n",
		a.Kernel, a.Time*1e3, a.BlocksPerSM, a.Warps, a.Occupancy)
	for _, p := range a.Phases {
		fmt.Fprintf(&b, "  phase %s (%.3f ms, bound by %s)\n", p.Phase, p.Duration*1e3, p.Bottleneck)
		for _, u := range p.Usages {
			fmt.Fprintf(&b, "    %-12s %6.1f%%\n", u.Resource, u.Fraction*100)
		}
	}
	return b.String()
}
