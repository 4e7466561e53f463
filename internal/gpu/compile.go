package gpu

import (
	"fmt"
	"math"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
)

// The kernel timing model: compile once, evaluate per pair.
//
// Almost everything a launch derives is invariant under the DVFS pair:
// occupancy and wave geometry are pure grid/spec arithmetic, event
// tallies and derated cache-hit fractions depend only on the kernel
// description and cache capacities, replay factors only on the
// instruction mix, and the deterministic timing irregularity only on
// (kernel name, grid). The pair enters each per-phase resource bound
// through exactly one frequency denominator — core Hz for pipeline
// bounds, memory bandwidth for the DRAM-bandwidth bound, and the
// core-vs-memory latency split for the latency bound.
//
// Compile therefore evaluates the whole invariant prefix once per
// (spec, kernel) and stores each phase's bounds as coefficients of the
// clock state; evaluating one frequency pair is then a handful of
// multiply-divides per bound plus the p-norm fold. This is the
// simulator's only timing model: RunKernel compiles and evaluates at the
// programmed pair, RunPairs and NewTimingTable reuse one CompiledKernel
// across a pair sweep, and Analyze reads each resource bound off the
// same coefficients.
//
// Bit-identity is the hard contract (the seed-42 golden artifacts encode
// these floats): every per-pair expression replicates the operation
// sequence of the uncompiled model the goldens were recorded with.
// Invariant subexpressions are hoisted only when they form a
// left-associated prefix of the original expression — e.g.
// issued/(sms*issueRate*fc) keeps the grouping numerator/(denominator·fc)
// with denominator = sms*issueRate hoisted — and terms that the original
// computes separately (the three latency addends, the two stall-slot
// factors) stay separate here. That uncompiled model is frozen in
// reference_test.go; the property tests in compile_test.go hold
// RunKernel, RunPairs and Analyze to it for every workload kernel × pair
// × board, comparing exact bits.

// boundKind selects the per-pair evaluation shape of one compiled bound.
type boundKind uint8

const (
	boundCore   boundKind = iota // t = num / (den · coreHz)
	boundMemBW                   // t = num / memBandwidth
	boundMemLat                  // t = num / (den / avgLat(pair))
)

// maxBoundsPerPhase is the number of resources a phase can be bound by:
// issue, alu, sfu, dp, lsu, shared, dram-bw and mem-latency.
const maxBoundsPerPhase = 8

// compiledBound is one per-phase resource bound as a function of the
// clock state.
type compiledBound struct {
	kind boundKind
	name string
	num  float64 // core: numerator · replay/penalty; mem-bw: bytes; mem-lat: txns
	den  float64 // core: fc-free denominator; mem-lat: resident·MLP·SMs
	lat0 float64 // mem-lat: core-clocked latency, cycles
	lat1 float64 // mem-lat: L1-miss-weighted L2 latency, cycles
	lat2 float64 // mem-lat: DRAM-latency weight
}

// time returns the bound at clock state clk, whose core clock is fc Hz.
// Zero or NaN means the resource does not bind the phase at all.
func (b *compiledBound) time(clk *clock.State, fc float64) float64 {
	switch b.kind {
	case boundCore:
		return b.num / (b.den * fc)
	case boundMemBW:
		return b.num / clk.MemBandwidthBytesPerSec()
	default: // boundMemLat
		// The average memory latency's three addends, kept separate so
		// the additions replay the original sequence: lat0/fc + lat1/fc +
		// lat2·dram. On cacheless boards the original is 280/fc + dram,
		// which the (280, 0, 1) coefficients reproduce exactly (adding 0.0
		// and multiplying by 1.0 are bit-exact no-ops).
		lat := b.lat0 / fc
		lat += b.lat1 / fc
		lat += b.lat2 * clk.DRAMLatencySec()
		rate := b.den / lat
		return b.num / rate
	}
}

// compiledPhase is the frequency-invariant part of one phase.
type compiledPhase struct {
	name   string
	events Events
	escale float64
	bounds []compiledBound // this phase's window of the kernel's bound storage
}

// CompiledKernel is the frequency-invariant precompute of one kernel on
// one board: everything a launch derives except the final per-pair
// timing folds. Build with Sim.Compile; RunKernel, RunPairs and Analyze
// evaluate it. A CompiledKernel is immutable after Compile and safe for
// concurrent use by any number of goroutines.
type CompiledKernel struct {
	timing *arch.Timing // the timing half it was compiled for (a spec never changes once booted)
	board  string       // that spec's name, for RunPairs' mismatch error
	name   string

	blocksPerSM   int
	residentWarps int
	occupancy     float64
	waveStretch   float64
	irregular     float64

	phases []compiledPhase

	// Frequency-invariant slice of the activity vector, computed once and
	// copied into every result; eval adds only the stall and cycle-count
	// entries, which depend on the pair.
	baseActs   counters.Vector
	slotFactor float64 // float64(SchedulersPerSM·IssuePerSched)
	smsF       float64 // float64(SMCount)
}

// Compile runs the frequency-invariant half of the kernel model once for
// this simulator's board. It reads only the board's timing half, so the
// result may be evaluated at any clock state of any board with the same
// arch.Timing, from any goroutine.
func (s *Sim) Compile(k *KernelDesc) (*CompiledKernel, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	t := &s.spec.Timing
	blocksPerSM, residentWarps := occupancy(t, k)
	warpsPerBlock := (k.ThreadsPerBlock + t.WarpSize - 1) / t.WarpSize
	totalWarps := float64(k.Blocks * warpsPerBlock)

	// Wave (tail) effect: blocks execute in waves of SMCount×blocksPerSM;
	// a partial final wave leaves SMs idle.
	perWave := float64(t.SMCount * blocksPerSM)
	waves := float64(k.Blocks) / perWave
	waveStretch := math.Ceil(waves) / waves
	if waves < 1 {
		// A single partial wave underuses the machine: stretch by the
		// fraction of SMs left idle instead.
		activeSMs := math.Ceil(float64(k.Blocks) / float64(blocksPerSM))
		waveStretch = float64(t.SMCount) / activeSMs
	}

	ck := &CompiledKernel{
		timing:        t,
		board:         s.spec.Name,
		name:          k.Name,
		blocksPerSM:   blocksPerSM,
		residentWarps: residentWarps,
		occupancy:     float64(residentWarps) / float64(t.MaxWarpsPerSM),
		waveStretch:   waveStretch,
		// Architecture-dependent timing irregularity: a deterministic
		// per-(kernel, grid) deviation that the performance counters do
		// not explain (see arch.Timing.TimingIrregularity). It is
		// independent of the frequency pair so that DVFS trends stay
		// physical; what it degrades is the counter→time transfer across
		// samples, as on real hardware.
		irregular:  1 + t.TimingIrregularity*irregularity(k.Name, k.Blocks),
		phases:     make([]compiledPhase, 0, len(k.Phases)),
		slotFactor: float64(t.SchedulersPerSM * t.IssuePerSched),
		smsF:       float64(t.SMCount),
	}
	// Sized for the worst case so no phase's window is ever reallocated.
	bounds := make([]compiledBound, 0, maxBoundsPerPhase*len(k.Phases))

	sms := float64(t.SMCount)
	v := &ck.baseActs
	var issuedSum, retired float64
	for i := range k.Phases {
		p := &k.Phases[i]
		wi := totalWarps * p.WarpInstsPerWarp

		// Divergence replays inflate the issued instruction stream.
		replayFactor := 1 + p.FracBranch*p.DivergentFrac*2.0
		issued := wi * replayFactor

		ev := Events{
			Issue:  issued,
			ALU:    wi * (p.FracALU + otherFrac(p)) * replayFactor,
			SFU:    wi * p.FracSFU,
			DP:     wi * p.FracDP,
			LSU:    wi * p.FracMem,
			Shared: wi * p.FracShared,
		}

		// Memory system: transactions, cache filtering, DRAM traffic. The
		// event tally filters as txns - txns·hit and the dram-bw bound as
		// txns·(1-hit); the two differ in the last bit and the goldens
		// encode both, so both stay.
		txns := wi * p.FracMem * p.TxnPerMemInst
		var l1Hit, l2Hit, dramTxns, dramBound float64
		if t.L1PerSM > 0 {
			l1Hit = derate(p.L1Hit, p.WorkingSetBytes, float64(t.L1PerSM))
			l2Hit = derate(p.L2Hit, p.WorkingSetBytes*float64(t.SMCount), float64(t.L2Size))
			l2Queries := txns - txns*l1Hit
			dramTxns = l2Queries - l2Queries*l2Hit
			ev.L1 = txns
			ev.L2 = l2Queries
			dramBound = txns * (1 - l1Hit) * (1 - l2Hit)
		} else {
			dramTxns = txns
			dramBound = txns
		}
		// Stores write through eventually: add write traffic not captured
		// by the read path (write-allocate misses already counted above).
		dramTxns += txns * p.StoreFrac * 0.25
		dramBound += txns * p.StoreFrac * 0.25
		ev.DRAM = dramTxns

		escale := p.ActivityFactor
		if escale == 0 {
			escale = 1
		}

		// Bottleneck analysis: one bound per resource the phase uses.
		first := len(bounds)
		divPenalty := 1 + p.DivergentFrac*1.5
		issueRate := float64(t.SchedulersPerSM*t.IssuePerSched) * p.IssueEff
		bounds = append(bounds,
			compiledBound{kind: boundCore, name: "issue", num: issued, den: sms * issueRate},
			compiledBound{kind: boundCore, name: "alu", num: ev.ALU * divPenalty, den: sms * t.ALUThroughput})
		if ev.SFU > 0 {
			bounds = append(bounds, compiledBound{kind: boundCore, name: "sfu", num: ev.SFU, den: sms * t.SFUThroughput})
		}
		if ev.DP > 0 {
			bounds = append(bounds, compiledBound{kind: boundCore, name: "dp", num: ev.DP, den: sms * t.DPThroughput})
		}
		if txns > 0 {
			bounds = append(bounds, compiledBound{kind: boundCore, name: "lsu", num: txns, den: sms * t.LSUThroughput})
		}
		if ev.Shared > 0 {
			bounds = append(bounds, compiledBound{kind: boundCore, name: "shared", num: ev.Shared, den: sms * t.LSUThroughput})
		}
		if dramBound > 0 {
			bounds = append(bounds, compiledBound{kind: boundMemBW, name: "dram-bw", num: dramBound * float64(t.LineSize)})
		}
		if txns > 0 && p.MLP > 0 {
			// Tesla: the whole coalescing/arbitration path to the memory
			// controller is core-clocked and deep — lowering the core
			// clock visibly stretches memory latency, which is why the
			// paper sees little benefit from core scaling on the GTX 285.
			b := compiledBound{kind: boundMemLat, name: "mem-latency", num: txns,
				den: float64(residentWarps) * p.MLP * sms, lat0: 280, lat2: 1}
			if t.L1PerSM > 0 {
				missL1 := 1 - l1Hit
				b.lat0 = t.L1LatencyCyc
				b.lat1 = missL1 * t.L2LatencyCyc
				b.lat2 = missL1 * (1 - l2Hit)
			}
			bounds = append(bounds, b)
		}
		ck.phases = append(ck.phases, compiledPhase{
			name: p.Name, events: ev, escale: escale,
			bounds: bounds[first:len(bounds):len(bounds)],
		})

		// Frequency-invariant activities, accumulated in phase order
		// (floating-point addition is not associative; the order is part
		// of the bit-identity contract).
		issuedSum += ev.Issue
		retired += wi
		v[counters.ActALU] += ev.ALU
		v[counters.ActSFU] += ev.SFU
		v[counters.ActDP] += ev.DP
		v[counters.ActLSU] += ev.LSU
		v[counters.ActShared] += ev.Shared
		v[counters.ActBranch] += wi * p.FracBranch
		v[counters.ActDivergent] += wi * p.FracBranch * p.DivergentFrac

		memTxns := ev.L1
		if t.L1PerSM == 0 {
			memTxns = ev.DRAM / (1 + p.StoreFrac*0.25)
		}
		v[counters.ActGlobalLoadTxn] += memTxns * (1 - p.StoreFrac)
		v[counters.ActGlobalStoreTxn] += memTxns * p.StoreFrac
		if t.L1PerSM > 0 {
			v[counters.ActL1Miss] += ev.L2
			v[counters.ActL1Hit] += ev.L1 - ev.L2
			// L2 hits = queries that did not go to DRAM (excluding the
			// store write-through surcharge).
			dramReads := ev.DRAM / (1 + p.StoreFrac*0.25)
			v[counters.ActL2Miss] += dramReads
			v[counters.ActL2Hit] += ev.L2 - dramReads
		}
		v[counters.ActDRAMRead] += ev.DRAM * (1 - p.StoreFrac)
		v[counters.ActDRAMWrite] += ev.DRAM * p.StoreFrac
	}
	v[counters.ActInstIssued] = issuedSum
	v[counters.ActInstExecuted] = retired
	v[counters.ActWarpsLaunched] = totalWarps
	v[counters.ActBlocksLaunched] = float64(k.Blocks)
	v[counters.ActThreadsLaunched] = float64(k.Blocks * k.ThreadsPerBlock)
	v[counters.ActOccupancy] = ck.occupancy
	return ck, nil
}

// eval runs the per-pair half of the model at the given clock state. It
// allocates the result struct and its phase slice; everything else is
// arithmetic over the compiled coefficients.
func (ck *CompiledKernel) eval(clk *clock.State) *KernelResult {
	res := newResult(len(ck.phases))
	ck.evalInto(clk, res)
	return res
}

// evalInto is eval into storage the caller owns: res must be zero except
// for a Phases slice of length 0 with capacity for every phase.
func (ck *CompiledKernel) evalInto(clk *clock.State, res *KernelResult) {
	fc := clk.CoreHz()
	res.Kernel = ck.name
	res.Occupancy = ck.occupancy
	v := ck.baseActs
	for pi := range ck.phases {
		ph := &ck.phases[pi]

		// Smooth maximum over bottlenecks: resources overlap imperfectly,
		// so the real time sits slightly above the max of the individual
		// bounds. A p-norm with p=4 gives the max asymptotically with a
		// gentle blend near crossover points — which is exactly the mixed
		// behaviour the paper observes on Gaussian (Fig. 3).
		const pnorm = 4.0
		var acc, tmax float64
		bname := "none"
		for bi := range ph.bounds {
			t := ph.bounds[bi].time(clk, fc)
			if !(t > 0) {
				continue
			}
			acc += math.Pow(t, pnorm)
			if t > tmax {
				tmax, bname = t, ph.bounds[bi].name
			}
		}
		dur := math.Pow(acc, 1/pnorm) * ck.waveStretch
		dur *= ck.irregular
		res.Time += dur
		res.Phases = append(res.Phases, PhaseResult{
			Name:        ph.name,
			Duration:    dur,
			Events:      ph.events,
			EnergyScale: ph.escale,
			Bottleneck:  bname,
		})

		// Stall accounting: scheduler slots lost to the dominant
		// bottleneck, apportioned by how memory- vs. execution-bound the
		// phase was.
		slots := dur * fc * ck.slotFactor * ck.smsF
		idle := slots - ph.events.Issue
		if idle > 0 {
			memShare := 0.2
			switch bname {
			case "dram-bw", "mem-latency", "lsu":
				memShare = 0.85
			case "issue":
				memShare = 0.1
			}
			v[counters.ActStallMem] += idle * memShare
			v[counters.ActStallExec] += idle * (1 - memShare)
		}
	}
	v[counters.ActActiveCycles] = res.Time * fc * ck.smsF * res.Occupancy
	v[counters.ActElapsedCycles] = res.Time * fc
	res.Activities = v
}

// RunPairs evaluates a compiled kernel at every given frequency pair in
// one pass, returning results aligned with pairs. The simulator's own
// clock state is untouched — the evaluation runs on a scratch copy of it,
// per-level tables included — so the pairs are evaluated without
// reprogramming the device. Each result is bit-identical to RunKernel run
// at that pair. The kernel must have been compiled for a board with this
// simulator's timing half.
func (s *Sim) RunPairs(ck *CompiledKernel, pairs []clock.Pair) ([]*KernelResult, error) {
	if *ck.timing != s.spec.Timing {
		return nil, fmt.Errorf("gpu: kernel %q compiled for %s, simulator runs %s",
			ck.name, ck.board, s.spec.Name)
	}
	scratch := *s.clk
	out := make([]*KernelResult, len(pairs))
	for i, p := range pairs {
		if err := scratch.SetPair(p); err != nil {
			return nil, err
		}
		out[i] = ck.eval(&scratch)
	}
	return out, nil
}
