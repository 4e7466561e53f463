// Package gpu implements the timing simulator for the CUDA-like GPUs the
// paper measures. It is an interval (bottleneck-analysis) simulator in the
// style of Sniper rather than a cycle-by-cycle model: simulating 500 ms of
// wall-clock at 1.4 GHz per cycle is infeasible, and the paper's
// characterization depends only on which resource binds — core-clocked
// issue/ALU/LSU bandwidth, memory-clocked DRAM bandwidth, or exposed memory
// latency (a mix of both domains). The simulator computes, per kernel
// phase, the sustained rate of every resource at the programmed frequency
// pair and advances virtual time accordingly, producing an execution time,
// a power trace for the simulated power meter, and the base activity
// vector the performance counters derive from.
package gpu

import "fmt"

// PhaseDesc describes one homogeneous execution phase of a kernel: a stretch
// of execution with a stable instruction mix and memory behaviour. Fractions
// are of the phase's warp instructions and need not sum to one; the
// remainder is treated as generic integer ALU work.
type PhaseDesc struct {
	Name string

	// WarpInstsPerWarp is the dynamic warp-instruction count each warp
	// executes in this phase.
	WarpInstsPerWarp float64

	// Instruction mix, as fractions of warp instructions.
	FracALU    float64 // single-precision / integer pipeline
	FracSFU    float64 // transcendentals
	FracDP     float64 // double precision
	FracMem    float64 // global/local memory accesses
	FracShared float64 // shared-memory accesses
	FracBranch float64 // branches

	// DivergentFrac is the fraction of branches that diverge; divergent
	// warps serialize and replay instructions.
	DivergentFrac float64

	// TxnPerMemInst is the average number of line-sized memory
	// transactions one memory warp instruction generates after
	// coalescing: 1 for perfectly coalesced access, up to WarpSize for
	// fully scattered access.
	TxnPerMemInst float64

	// StoreFrac is the store fraction of memory transactions.
	StoreFrac float64

	// L1Hit and L2Hit are nominal hit fractions assuming the working set
	// fits; they are derated by the ratio of WorkingSetBytes to the
	// actual cache capacity of the simulated board. On cacheless boards
	// (Tesla) every transaction goes to DRAM.
	L1Hit, L2Hit float64

	// WorkingSetBytes is the per-SM working set used to derate hit rates.
	WorkingSetBytes float64

	// MLP is the average number of outstanding memory requests per warp
	// (memory-level parallelism).
	MLP float64

	// IssueEff is the fraction of peak issue bandwidth the instruction
	// stream can use (instruction-level parallelism / dependence limits).
	IssueEff float64

	// ActivityFactor scales the *energy* cost of this phase's events
	// without changing their counts: it models data-dependent switching
	// activity (operand toggling), which real performance counters cannot
	// observe — a major reason the paper's power model R̄² is low. Zero
	// means 1 (nominal toggling).
	ActivityFactor float64
}

// Validate checks a phase for obvious inconsistencies.
func (p *PhaseDesc) Validate() error {
	if p.WarpInstsPerWarp <= 0 {
		return fmt.Errorf("gpu: phase %q: non-positive instruction count", p.Name)
	}
	sum := p.FracALU + p.FracSFU + p.FracDP + p.FracMem + p.FracShared + p.FracBranch
	if sum > 1+1e-9 {
		return fmt.Errorf("gpu: phase %q: instruction mix sums to %.3f > 1", p.Name, sum)
	}
	// Declaration order, so a phase with several bad fractions always
	// reports the same (first) one.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"FracALU", p.FracALU}, {"FracSFU", p.FracSFU}, {"FracDP", p.FracDP},
		{"FracMem", p.FracMem}, {"FracShared", p.FracShared}, {"FracBranch", p.FracBranch},
		{"DivergentFrac", p.DivergentFrac}, {"StoreFrac", p.StoreFrac},
		{"L1Hit", p.L1Hit}, {"L2Hit", p.L2Hit},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("gpu: phase %q: %s = %g out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.TxnPerMemInst < 0 || p.TxnPerMemInst > 32 {
		return fmt.Errorf("gpu: phase %q: TxnPerMemInst = %g out of [0,32]", p.Name, p.TxnPerMemInst)
	}
	if p.MLP <= 0 && p.FracMem > 0 {
		return fmt.Errorf("gpu: phase %q: memory phase needs MLP > 0", p.Name)
	}
	if p.IssueEff <= 0 || p.IssueEff > 1 {
		return fmt.Errorf("gpu: phase %q: IssueEff = %g out of (0,1]", p.Name, p.IssueEff)
	}
	if p.ActivityFactor != 0 && (p.ActivityFactor < 0.3 || p.ActivityFactor > 3) {
		return fmt.Errorf("gpu: phase %q: ActivityFactor = %g out of [0.3,3]", p.Name, p.ActivityFactor)
	}
	return nil
}

// KernelDesc describes one kernel launch: its grid and per-thread resource
// usage (which bound occupancy) and its execution phases.
type KernelDesc struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	RegsPerThread   int
	SharedPerBlock  int // bytes
	Phases          []PhaseDesc
}

// Validate checks the kernel description.
func (k *KernelDesc) Validate() error {
	if k.Blocks <= 0 || k.ThreadsPerBlock <= 0 {
		return fmt.Errorf("gpu: kernel %q: empty grid", k.Name)
	}
	if k.ThreadsPerBlock > 1024 {
		return fmt.Errorf("gpu: kernel %q: %d threads per block exceeds 1024", k.Name, k.ThreadsPerBlock)
	}
	if len(k.Phases) == 0 {
		return fmt.Errorf("gpu: kernel %q: no phases", k.Name)
	}
	for i := range k.Phases {
		if err := k.Phases[i].Validate(); err != nil {
			return fmt.Errorf("gpu: kernel %q: %w", k.Name, err)
		}
	}
	return nil
}
