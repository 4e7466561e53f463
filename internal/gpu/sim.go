package gpu

import (
	"fmt"
	"hash/fnv"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
)

// Events is the per-domain event tally of one simulated interval; the
// hardware energy model (internal/power) converts it to joules. Counts are
// warp-granular for core pipeline events and transaction-granular for the
// memory system.
type Events struct {
	Issue  float64 // warp instructions issued (incl. replays)
	ALU    float64
	SFU    float64
	DP     float64
	LSU    float64 // memory warp instructions (address generation)
	Shared float64
	L1     float64 // L1 transactions (hits + misses)
	L2     float64 // L2 transactions (memory domain)
	DRAM   float64 // DRAM transactions (memory domain)
}

// Scale multiplies every tally by k (used to apply a phase's data-dependent
// switching-activity factor before energy accounting).
func (e *Events) Scale(k float64) {
	e.Issue *= k
	e.ALU *= k
	e.SFU *= k
	e.DP *= k
	e.LSU *= k
	e.Shared *= k
	e.L1 *= k
	e.L2 *= k
	e.DRAM *= k
}

// Add accumulates another tally.
func (e *Events) Add(o Events) {
	e.Issue += o.Issue
	e.ALU += o.ALU
	e.SFU += o.SFU
	e.DP += o.DP
	e.LSU += o.LSU
	e.Shared += o.Shared
	e.L1 += o.L1
	e.L2 += o.L2
	e.DRAM += o.DRAM
}

// PhaseResult is the outcome of one simulated phase: how long it took and
// what hardware events it generated. The sequence of PhaseResults is the
// power trace the simulated meter samples.
type PhaseResult struct {
	Name     string
	Duration float64 // seconds
	Events   Events
	// EnergyScale is the phase's data-dependent switching-activity factor
	// (PhaseDesc.ActivityFactor, defaulted to 1): the energy model should
	// scale this phase's per-event energies by it. Counters do not see it.
	EnergyScale float64
	// Bottleneck is the resource that bound this phase (diagnostic).
	Bottleneck string
}

// KernelResult is the outcome of one kernel launch.
type KernelResult struct {
	Kernel     string
	Time       float64 // seconds
	Phases     []PhaseResult
	Activities counters.Vector
	Occupancy  float64 // resident-warp fraction, 0..1
}

// newResult returns a zeroed KernelResult whose Phases slice has capacity
// for nPhases entries.
func newResult(nPhases int) *KernelResult {
	return &KernelResult{Phases: make([]PhaseResult, 0, nPhases)}
}

// ReleaseResult does nothing: results are ordinary garbage.
//
// Deprecated: results are no longer pooled; drop the call.
func ReleaseResult(*KernelResult) {}

// Sim simulates kernels on one board at one DVFS state. It is not
// goroutine-safe; drive one Sim per goroutine.
type Sim struct {
	spec *arch.Spec
	clk  *clock.State
}

// New returns a simulator for the board described by spec at the DVFS state
// clk. The clock state may be mutated between runs to model frequency
// switching.
func New(spec *arch.Spec, clk *clock.State) *Sim {
	return &Sim{spec: spec, clk: clk}
}

// Spec returns the simulated board.
func (s *Sim) Spec() *arch.Spec { return s.spec }

// Clock returns the DVFS state the simulator reads.
func (s *Sim) Clock() *clock.State { return s.clk }

// Occupancy computes the number of resident blocks per SM for a kernel,
// applying the block, warp, register and shared-memory limits.
func (s *Sim) Occupancy(k *KernelDesc) (blocksPerSM, residentWarps int) {
	return occupancy(&s.spec.Timing, k)
}

func occupancy(t *arch.Timing, k *KernelDesc) (blocksPerSM, residentWarps int) {
	warpsPerBlock := (k.ThreadsPerBlock + t.WarpSize - 1) / t.WarpSize
	limit := t.MaxBlocksPerSM
	if byWarps := t.MaxWarpsPerSM / warpsPerBlock; byWarps < limit {
		limit = byWarps
	}
	if k.SharedPerBlock > 0 {
		if byShared := t.SharedMemPerSM / k.SharedPerBlock; byShared < limit {
			limit = byShared
		}
	}
	if k.RegsPerThread > 0 {
		regsPerBlock := k.RegsPerThread * k.ThreadsPerBlock
		if byRegs := t.RegistersPerSM / regsPerBlock; byRegs < limit {
			limit = byRegs
		}
	}
	if limit < 1 {
		limit = 1 // the hardware always fits at least one block
	}
	return limit, limit * warpsPerBlock
}

// RunKernel simulates one kernel launch at the current DVFS state: it
// compiles the kernel and evaluates the compiled form at the programmed
// pair. A sweep that revisits one kernel at many pairs should Compile
// once and call RunPairs, or build a TimingTable, instead.
func (s *Sim) RunKernel(k *KernelDesc) (*KernelResult, error) {
	ck, err := s.Compile(k)
	if err != nil {
		return nil, err
	}
	return ck.eval(s.clk), nil
}

// RunKernelInto is RunKernel into a result the caller owns: res is
// overwritten, and its Phases storage is reused when it holds every
// phase, so a caller that folds each result before the next launch
// allocates no result.
func (s *Sim) RunKernelInto(k *KernelDesc, res *KernelResult) error {
	ck, err := s.Compile(k)
	if err != nil {
		return err
	}
	phases := res.Phases[:0]
	if cap(phases) < len(ck.phases) {
		phases = make([]PhaseResult, 0, len(ck.phases))
	}
	*res = KernelResult{Phases: phases}
	ck.evalInto(s.clk, res)
	return nil
}

// irregularity maps (kernel, grid) to a deterministic value in [-1, 1] via
// FNV hashing; it seeds the per-run timing deviation.
func irregularity(name string, blocks int) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // fnv: hash.Hash.Write never errors
	var buf [2]byte
	buf[0] = byte(blocks)
	buf[1] = byte(blocks >> 8)
	_, _ = h.Write(buf[:]) // fnv: hash.Hash.Write never errors
	return 2*float64(h.Sum64()%100000)/99999 - 1
}

// derate reduces a nominal hit fraction as the working set outgrows the
// cache capacity. Real kernels block their reuse (tiling, temporal
// locality), so hits decay gently — a working set a few times the cache
// still keeps most of its nominal hit rate, and only order-of-magnitude
// overshoot destroys it.
func derate(nominal, workingSet, capacity float64) float64 {
	if capacity <= 0 {
		return 0
	}
	if workingSet <= 0 {
		return nominal
	}
	return nominal / (1 + workingSet/(6*capacity))
}

func otherFrac(p *PhaseDesc) float64 {
	f := 1 - p.FracALU - p.FracSFU - p.FracDP - p.FracMem - p.FracShared - p.FracBranch
	if f < 0 {
		return 0
	}
	return f
}

// String summarizes a result for diagnostics.
func (r *KernelResult) String() string {
	return fmt.Sprintf("%s: %.3f ms, %d phases, occupancy %.2f",
		r.Kernel, r.Time*1e3, len(r.Phases), r.Occupancy)
}
