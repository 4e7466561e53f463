package gpu

import (
	"math"
	"sort"

	"gpuperf/internal/counters"
)

// The frozen reference model: the uncompiled interval model that
// recorded the seed-42 goldens, kept verbatim (only renamed) so the
// property tests can hold the compiled model to it bit for bit. It must
// never call Compile or eval — a shared code path would make the
// comparison vacuous. It does share the pure helpers (Occupancy,
// Validate, derate, otherFrac, irregularity, newResult).

// refRunKernel simulates one kernel launch at the current DVFS state.
func (s *Sim) refRunKernel(k *KernelDesc) (*KernelResult, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	blocksPerSM, residentWarps := s.Occupancy(k)
	warpsPerBlock := (k.ThreadsPerBlock + s.spec.WarpSize - 1) / s.spec.WarpSize
	totalWarps := float64(k.Blocks * warpsPerBlock)

	// Wave (tail) effect: blocks execute in waves of SMCount×blocksPerSM;
	// a partial final wave leaves SMs idle.
	perWave := float64(s.spec.SMCount * blocksPerSM)
	waves := float64(k.Blocks) / perWave
	waveStretch := math.Ceil(waves) / waves
	if waves < 1 {
		// A single partial wave underuses the machine: stretch by the
		// fraction of SMs left idle instead.
		activeSMs := math.Ceil(float64(k.Blocks) / float64(blocksPerSM))
		waveStretch = float64(s.spec.SMCount) / activeSMs
	}

	// Sized up front: the append loop below must not reallocate
	// on the metering hot path (pinned by an AllocsPerRun regression test).
	res := newResult(len(k.Phases))
	res.Kernel = k.Name
	res.Occupancy = float64(residentWarps) / float64(s.spec.MaxWarpsPerSM)

	// Architecture-dependent timing irregularity: a deterministic
	// per-(kernel, grid) deviation that the performance counters do not
	// explain (see arch.Spec.TimingIrregularity). It is independent of the
	// frequency pair so that DVFS trends stay physical; what it degrades
	// is the counter→time transfer across samples, as on real hardware.
	irregular := 1 + s.spec.TimingIrregularity*irregularity(k.Name, k.Blocks)

	for i := range k.Phases {
		pr := s.refRunPhase(&k.Phases[i], totalWarps, residentWarps, waveStretch)
		pr.Duration *= irregular
		res.Time += pr.Duration
		res.Phases = append(res.Phases, pr)
	}

	s.refFillActivities(k, res, totalWarps)
	return res, nil
}

// refRunPhase computes the duration and event tally of one phase via
// bottleneck analysis.
func (s *Sim) refRunPhase(p *PhaseDesc, totalWarps float64, residentWarps int, waveStretch float64) PhaseResult {
	spec := s.spec

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

	// Memory system: transactions, cache filtering, DRAM traffic.
	txns := wi * p.FracMem * p.TxnPerMemInst
	var dramTxns float64
	if spec.L1PerSM > 0 {
		l1HitFrac := derate(p.L1Hit, p.WorkingSetBytes, float64(spec.L1PerSM))
		l2Queries := txns - txns*l1HitFrac
		l2HitFrac := derate(p.L2Hit, p.WorkingSetBytes*float64(spec.SMCount), float64(spec.L2Size))
		dramTxns = l2Queries - l2Queries*l2HitFrac
		ev.L1 = txns
		ev.L2 = l2Queries
	} else {
		dramTxns = txns
	}
	// Stores write through eventually: add write traffic not captured by
	// the read path (write-allocate misses already counted above).
	dramTxns += txns * p.StoreFrac * 0.25
	ev.DRAM = dramTxns

	// --- Bottleneck analysis (shared with Analyze) ----------------------
	bounds := s.refPhaseBounds(p, totalWarps, residentWarps)

	// Smooth maximum over bottlenecks: resources overlap imperfectly, so
	// the real time sits slightly above the max of the individual bounds.
	// A p-norm with p=4 gives the max asymptotically with a gentle blend
	// near crossover points — which is exactly the mixed behaviour the
	// paper observes on Gaussian (Fig. 3).
	const pnorm = 4.0
	var acc, tmax float64
	bname := "none"
	for _, b := range bounds {
		acc += math.Pow(b.t, pnorm)
		if b.t > tmax {
			tmax, bname = b.t, b.name
		}
	}
	dur := math.Pow(acc, 1/pnorm) * waveStretch

	escale := p.ActivityFactor
	if escale == 0 {
		escale = 1
	}
	return PhaseResult{Name: p.Name, Duration: dur, Events: ev, EnergyScale: escale, Bottleneck: bname}
}

// refAvgMemLatency returns the average latency of one memory transaction in
// seconds at the current clocks, weighting the cache levels by their hit
// fractions. Core-clocked components stretch with 1/fc, DRAM with the
// memory clock (see clock.DRAMLatencySec).
func (s *Sim) refAvgMemLatency(p *PhaseDesc) float64 {
	spec := s.spec
	fc := s.clk.CoreHz()
	dram := s.clk.DRAMLatencySec()
	if spec.L1PerSM == 0 {
		// Tesla: the whole coalescing/arbitration path to the memory
		// controller is core-clocked and deep — lowering the core clock
		// visibly stretches memory latency, which is why the paper sees
		// little benefit from core scaling on the GTX 285.
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

// refFillActivities converts the event tallies of a finished kernel into the
// base activity vector the performance counters derive from.
func (s *Sim) refFillActivities(k *KernelDesc, res *KernelResult, totalWarps float64) {
	var v counters.Vector
	fc := s.clk.CoreHz()
	var issued, retired float64
	for i := range res.Phases {
		pr := &res.Phases[i]
		p := &k.Phases[i]
		ev := pr.Events
		issued += ev.Issue
		wi := totalWarps * p.WarpInstsPerWarp
		retired += wi

		v[counters.ActALU] += ev.ALU
		v[counters.ActSFU] += ev.SFU
		v[counters.ActDP] += ev.DP
		v[counters.ActLSU] += ev.LSU
		v[counters.ActShared] += ev.Shared
		v[counters.ActBranch] += wi * p.FracBranch
		v[counters.ActDivergent] += wi * p.FracBranch * p.DivergentFrac

		txns := ev.L1
		if s.spec.L1PerSM == 0 {
			txns = ev.DRAM / (1 + p.StoreFrac*0.25)
		}
		v[counters.ActGlobalLoadTxn] += txns * (1 - p.StoreFrac)
		v[counters.ActGlobalStoreTxn] += txns * p.StoreFrac
		if s.spec.L1PerSM > 0 {
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

		// Stall accounting: scheduler slots lost to the dominant
		// bottleneck, apportioned by how memory- vs. execution-bound the
		// phase was.
		slots := pr.Duration * fc * float64(s.spec.SchedulersPerSM*s.spec.IssuePerSched) * float64(s.spec.SMCount)
		idle := slots - ev.Issue
		if idle > 0 {
			memShare := 0.2
			switch pr.Bottleneck {
			case "dram-bw", "mem-latency", "lsu":
				memShare = 0.85
			case "issue":
				memShare = 0.1
			}
			v[counters.ActStallMem] += idle * memShare
			v[counters.ActStallExec] += idle * (1 - memShare)
		}
	}
	v[counters.ActInstIssued] = issued
	v[counters.ActInstExecuted] = retired
	v[counters.ActActiveCycles] = res.Time * fc * float64(s.spec.SMCount) * res.Occupancy
	v[counters.ActElapsedCycles] = res.Time * fc
	v[counters.ActWarpsLaunched] = totalWarps
	v[counters.ActBlocksLaunched] = float64(k.Blocks)
	v[counters.ActThreadsLaunched] = float64(k.Blocks * k.ThreadsPerBlock)
	v[counters.ActOccupancy] = res.Occupancy
	res.Activities = v
}

// refAnalyze runs the kernel's bottleneck model at the current DVFS state
// and returns the per-resource breakdown.
func (s *Sim) refAnalyze(k *KernelDesc) (*KernelAnalysis, error) {
	res, err := s.refRunKernel(k)
	if err != nil {
		return nil, err
	}
	blocksPerSM, residentWarps := s.Occupancy(k)
	out := &KernelAnalysis{
		Kernel:      k.Name,
		Time:        res.Time,
		BlocksPerSM: blocksPerSM,
		Warps:       residentWarps,
		Occupancy:   res.Occupancy,
	}
	warpsPerBlock := (k.ThreadsPerBlock + s.spec.WarpSize - 1) / s.spec.WarpSize
	totalWarps := float64(k.Blocks * warpsPerBlock)
	// Resource fractions are computed against the model-ideal duration
	// (irregularity factored out): the per-grid timing deviation is by
	// definition not attributable to any resource.
	irregular := 1 + s.spec.TimingIrregularity*irregularity(k.Name, k.Blocks)
	for i := range k.Phases {
		p := &k.Phases[i]
		bounds := s.refPhaseBounds(p, totalWarps, residentWarps)
		pa := PhaseAnalysis{
			Phase:      p.Name,
			Duration:   res.Phases[i].Duration,
			Bottleneck: res.Phases[i].Bottleneck,
		}
		ideal := pa.Duration / irregular
		for _, b := range bounds {
			pa.Usages = append(pa.Usages, ResourceUsage{
				Resource: b.name,
				Time:     b.t,
				Fraction: b.t / ideal,
			})
		}
		sort.Slice(pa.Usages, func(a, b int) bool { return pa.Usages[a].Time > pa.Usages[b].Time })
		out.Phases = append(out.Phases, pa)
	}
	return out, nil
}

// refPhaseBounds recomputes the per-resource time bounds of one phase (the
// same arithmetic refRunPhase folds into its p-norm).
func (s *Sim) refPhaseBounds(p *PhaseDesc, totalWarps float64, residentWarps int) []refBound {
	spec := s.spec
	fc := s.clk.CoreHz()
	wi := totalWarps * p.WarpInstsPerWarp
	replayFactor := 1 + p.FracBranch*p.DivergentFrac*2.0
	issued := wi * replayFactor
	alu := wi * (p.FracALU + otherFrac(p)) * replayFactor
	sfu := wi * p.FracSFU
	dp := wi * p.FracDP
	shared := wi * p.FracShared
	txns := wi * p.FracMem * p.TxnPerMemInst

	var dramTxns float64
	if spec.L1PerSM > 0 {
		l1Hit := derate(p.L1Hit, p.WorkingSetBytes, float64(spec.L1PerSM))
		l2Queries := txns * (1 - l1Hit)
		l2Hit := derate(p.L2Hit, p.WorkingSetBytes*float64(spec.SMCount), float64(spec.L2Size))
		dramTxns = l2Queries * (1 - l2Hit)
	} else {
		dramTxns = txns
	}
	dramTxns += txns * p.StoreFrac * 0.25

	sms := float64(spec.SMCount)
	divPenalty := 1 + p.DivergentFrac*1.5
	var bounds []refBound
	add := func(name string, t float64) {
		if t > 0 {
			bounds = append(bounds, refBound{name, t})
		}
	}
	issueRate := float64(spec.SchedulersPerSM*spec.IssuePerSched) * p.IssueEff
	add("issue", issued/(sms*issueRate*fc))
	add("alu", alu*divPenalty/(sms*spec.ALUThroughput*fc))
	if sfu > 0 {
		add("sfu", sfu/(sms*spec.SFUThroughput*fc))
	}
	if dp > 0 {
		add("dp", dp/(sms*spec.DPThroughput*fc))
	}
	if txns > 0 {
		add("lsu", txns/(sms*spec.LSUThroughput*fc))
	}
	if shared > 0 {
		add("shared", shared/(sms*spec.LSUThroughput*fc))
	}
	if dramTxns > 0 {
		add("dram-bw", dramTxns*float64(spec.LineSize)/s.clk.MemBandwidthBytesPerSec())
	}
	if txns > 0 && p.MLP > 0 {
		avgLat := s.refAvgMemLatency(p)
		rate := float64(residentWarps) * p.MLP * sms / avgLat
		add("mem-latency", txns/rate)
	}
	return bounds
}

type refBound struct {
	name string
	t    float64
}
