package gpu

import (
	"fmt"
	"hash/fnv"
	"math"
)

// MicroSim is a warp-level, cycle-stepped simulator of a single SM — the
// validation reference for the interval model. Where the interval model
// computes sustained rates analytically, MicroSim actually schedules warps
// cycle by cycle: each warp walks a deterministic instruction stream drawn
// from the phase's mix, execution units have per-cycle issue budgets,
// memory instructions wait out the (clock-dependent) latency with a
// bounded number in flight per warp, and the SM retires the kernel when
// every resident warp finishes.
//
// It is orders of magnitude slower than the interval model (it touches
// every instruction), so the library uses it only in validation tests and
// the -microsim diagnostic, never in the experiment harnesses.
type MicroSim struct {
	sim *Sim
}

// NewMicro wraps a Sim for microsimulation at the same DVFS state.
func NewMicro(s *Sim) *MicroSim { return &MicroSim{sim: s} }

// avgMemLatency returns the average latency of one memory transaction in
// seconds at the current clocks, weighting the cache levels by their hit
// fractions. Core-clocked components stretch with 1/fc, DRAM with the
// memory clock (see clock.DRAMLatencySec). The interval model folds the
// same three terms into its compiled mem-latency bound.
func (s *Sim) avgMemLatency(p *PhaseDesc) float64 {
	spec := s.spec
	fc := s.clk.CoreHz()
	dram := s.clk.DRAMLatencySec()
	if spec.L1PerSM == 0 {
		// Tesla: the whole coalescing/arbitration path to the memory
		// controller is core-clocked and deep.
		return 280/fc + dram
	}
	l1Hit := derate(p.L1Hit, p.WorkingSetBytes, float64(spec.L1PerSM))
	l2Hit := derate(p.L2Hit, p.WorkingSetBytes*float64(spec.SMCount), float64(spec.L2Size))
	lat := spec.L1LatencyCyc / fc
	missL1 := 1 - l1Hit
	lat += missL1 * spec.L2LatencyCyc / fc
	lat += missL1 * (1 - l2Hit) * dram
	return lat
}

// instruction classes in the micro trace.
type instClass uint8

const (
	instALU instClass = iota
	instSFU
	instDP
	instMem
	instShared
	instBranch
)

// microWarp is one resident warp's execution state.
type microWarp struct {
	pc        int     // instructions retired
	total     int     // instructions to retire
	readyAt   float64 // cycle at which the warp may issue again
	inFlight  int     // outstanding memory requests
	waitMem   bool    // blocked on memory at the MLP limit
	streamSel uint64  // per-warp deterministic stream seed
}

// MicroResult reports a microsimulation.
type MicroResult struct {
	Kernel string
	Time   float64 // seconds, whole kernel (all waves)
	Cycles float64 // core cycles for one wave on one SM
	IPC    float64 // retired warp-instructions per cycle per SM
}

// RunKernel microsimulates the kernel. Only single-phase kernels are
// supported (the validation corpus); multi-phase kernels return an error.
func (m *MicroSim) RunKernel(k *KernelDesc) (*MicroResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if len(k.Phases) != 1 {
		return nil, fmt.Errorf("gpu: microsim supports single-phase kernels, got %d phases", len(k.Phases))
	}
	p := &k.Phases[0]
	spec := m.sim.spec
	clk := m.sim.clk
	fc := clk.CoreHz()

	blocksPerSM, residentWarps := m.sim.Occupancy(k)
	instsPerWarp := int(p.WarpInstsPerWarp)
	if instsPerWarp < 1 {
		instsPerWarp = 1
	}

	// Memory latency in core cycles at the current clocks.
	memLatCyc := m.sim.avgMemLatency(p) * fc
	mlp := int(p.MLP)
	if mlp < 1 {
		mlp = 1
	}

	// DRAM bandwidth share of this SM, as core cycles of bus service per
	// memory instruction: only transactions that miss the caches reach
	// DRAM and serialize on the memory bus.
	missFrac := 1.0
	if spec.L1PerSM > 0 {
		l1 := derate(p.L1Hit, p.WorkingSetBytes, float64(spec.L1PerSM))
		l2 := derate(p.L2Hit, p.WorkingSetBytes*float64(spec.SMCount), float64(spec.L2Size))
		missFrac = (1 - l1) * (1 - l2)
	}
	dramBytesPerMemInst := p.TxnPerMemInst * missFrac * float64(spec.LineSize) * (1 + p.StoreFrac*0.25)
	bwPerSM := clk.MemBandwidthBytesPerSec() / float64(spec.SMCount) // bytes/sec
	busServiceCyc := dramBytesPerMemInst / bwPerSM * fc
	busFree := 0.0

	// Per-cycle issue budgets (warp-instructions per cycle for one SM).
	issueBudget := float64(spec.SchedulersPerSM*spec.IssuePerSched) * p.IssueEff
	var budgets [6]float64
	budgets[instALU] = spec.ALUThroughput / (1 + p.DivergentFrac*1.5)
	budgets[instSFU] = spec.SFUThroughput
	budgets[instDP] = spec.DPThroughput
	budgets[instMem] = spec.LSUThroughput
	budgets[instShared] = spec.LSUThroughput
	budgets[instBranch] = spec.ALUThroughput

	warps := make([]microWarp, residentWarps)
	for i := range warps {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", k.Name, i)
		warps[i] = microWarp{total: instsPerWarp, streamSel: h.Sum64()}
	}

	type memRet struct {
		warp int
		at   float64
	}
	var retQueue []memRet

	cycle := 0.0
	done := 0
	var retired float64
	// Execution-dependency latency per instruction class, cycles.
	depLat := [6]float64{instALU: 10, instSFU: 18, instDP: 20, instShared: 24, instBranch: 8, instMem: 4}

	// Units with fractional throughput (e.g. Fermi's 0.5 ALU warp-insts
	// per listed cycle) accumulate issue credit across cycles; one credit
	// buys one warp instruction.
	var credit [6]float64

	maxCycles := 20e6 // hard stop against pathological configurations
	for done < len(warps) && cycle < maxCycles {
		for c := range credit {
			credit[c] += budgets[c]
			if limit := budgets[c] + 2; credit[c] > limit {
				credit[c] = limit
			}
		}
		// Retire memory returns due this cycle; a warp whose final
		// instruction was a load finishes here.
		kept := retQueue[:0]
		for _, r := range retQueue {
			if r.at <= cycle {
				w := &warps[r.warp]
				w.inFlight--
				w.waitMem = false
				if w.pc >= w.total && w.inFlight == 0 {
					done++
				}
			} else {
				kept = append(kept, r)
			}
		}
		retQueue = kept

		// Issue across schedulers, greedy over ready warps.
		issued := 0.0
		for wi := range warps {
			if issued >= issueBudget {
				break
			}
			w := &warps[wi]
			if w.pc >= w.total || w.readyAt > cycle || w.waitMem {
				continue
			}
			cls := classOf(p, w.streamSel, w.pc)
			if credit[cls] < 1 {
				// Unit saturated; the warp stalls this cycle.
				continue
			}
			if cls == instMem {
				if w.inFlight >= mlp {
					w.waitMem = true
					continue
				}
				// Each memory instruction issues TxnPerMemInst requests;
				// model their combined service as one return event, no
				// earlier than both the load-to-use latency and this SM's
				// DRAM-bandwidth share allow.
				w.inFlight++
				if busFree < cycle {
					busFree = cycle
				}
				busFree += busServiceCyc
				latReturn := cycle + memLatCyc*math.Max(1, p.TxnPerMemInst/4)
				retQueue = append(retQueue, memRet{warp: wi, at: math.Max(latReturn, busFree)})
			}
			credit[cls]--
			issued++
			w.pc++
			retired++
			w.readyAt = cycle + depLat[cls]/math.Max(1, float64(mlp)) // ILP hides part of the latency
			if w.pc >= w.total && w.inFlight == 0 {
				done++
			}
		}
		cycle++
	}
	if cycle >= maxCycles {
		return nil, fmt.Errorf("gpu: microsim exceeded %g cycles", maxCycles)
	}

	// Scale one wave on one SM to the whole grid, as the interval model
	// does (waves of SMCount×blocksPerSM blocks).
	waves := math.Ceil(float64(k.Blocks) / float64(spec.SMCount*blocksPerSM))
	if waves < 1 {
		waves = 1
	}
	time := cycle / fc * waves
	return &MicroResult{
		Kernel: k.Name,
		Time:   time,
		Cycles: cycle,
		IPC:    retired / cycle,
	}, nil
}

// classOf deterministically assigns instruction w.pc of a warp's stream to
// a class with the phase's mix as the distribution.
func classOf(p *PhaseDesc, seed uint64, pc int) instClass {
	// Cheap stateless hash → [0, 1).
	x := seed ^ uint64(pc)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	u := float64(x%1_000_000) / 1_000_000

	cum := p.FracSFU
	if u < cum {
		return instSFU
	}
	cum += p.FracDP
	if u < cum {
		return instDP
	}
	cum += p.FracMem
	if u < cum {
		return instMem
	}
	cum += p.FracShared
	if u < cum {
		return instShared
	}
	cum += p.FracBranch
	if u < cum {
		return instBranch
	}
	return instALU
}
