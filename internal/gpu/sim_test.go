package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/counters"
)

// computeKernel is a heavily compute-bound kernel: almost pure ALU with a
// trickle of perfectly coalesced memory traffic.
func computeKernel(blocks int) *KernelDesc {
	return &KernelDesc{
		Name:            "compute",
		Blocks:          blocks,
		ThreadsPerBlock: 256,
		RegsPerThread:   24,
		Phases: []PhaseDesc{{
			Name:             "main",
			WarpInstsPerWarp: 20000,
			FracALU:          0.85,
			FracMem:          0.005,
			FracBranch:       0.05,
			TxnPerMemInst:    1,
			L1Hit:            0.8, L2Hit: 0.8,
			WorkingSetBytes: 4 << 10,
			MLP:             4,
			IssueEff:        0.9,
		}},
	}
}

// memoryKernel is a streaming, bandwidth-bound kernel.
func memoryKernel(blocks int) *KernelDesc {
	return &KernelDesc{
		Name:            "memory",
		Blocks:          blocks,
		ThreadsPerBlock: 256,
		RegsPerThread:   16,
		Phases: []PhaseDesc{{
			Name:             "stream",
			WarpInstsPerWarp: 4000,
			FracALU:          0.25,
			FracMem:          0.45,
			FracBranch:       0.03,
			TxnPerMemInst:    1.2,
			StoreFrac:        0.3,
			L1Hit:            0.05, L2Hit: 0.1,
			WorkingSetBytes: 16 << 20, // streams through, no reuse
			MLP:             8,
			IssueEff:        0.8,
		}},
	}
}

func simAt(t *testing.T, spec *arch.Spec, p clock.Pair) *Sim {
	t.Helper()
	clk := clock.NewState(spec)
	if err := clk.SetPair(p); err != nil {
		t.Fatalf("%s: SetPair(%s): %v", spec.Name, p, err)
	}
	return New(spec, clk)
}

func runAt(t *testing.T, spec *arch.Spec, k *KernelDesc, p clock.Pair) *KernelResult {
	t.Helper()
	res, err := simAt(t, spec, p).RunKernel(k)
	if err != nil {
		t.Fatalf("%s %s: RunKernel: %v", spec.Name, p, err)
	}
	return res
}

func TestComputeBoundScalesWithCoreClock(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		k := computeKernel(8 * spec.SMCount)
		tH := runAt(t, spec, k, clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqHigh}).Time
		tM := runAt(t, spec, k, clock.Pair{Core: arch.FreqMid, Mem: arch.FreqHigh}).Time
		wantRatio := spec.CoreFreqMHz(arch.FreqHigh) / spec.CoreFreqMHz(arch.FreqMid)
		gotRatio := tM / tH
		if math.Abs(gotRatio-wantRatio)/wantRatio > 0.05 {
			t.Errorf("%s: compute-bound time ratio M/H = %.3f, want ≈ %.3f", spec.Name, gotRatio, wantRatio)
		}
	}
}

func TestComputeBoundInsensitiveToMemClock(t *testing.T) {
	// Fig. 1: Backprop performance is flat across memory frequencies.
	for _, spec := range arch.AllBoards() {
		k := computeKernel(8 * spec.SMCount)
		tH := runAt(t, spec, k, clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqHigh}).Time
		tL := runAt(t, spec, k, clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqLow}).Time
		if ratio := tL / tH; ratio > 1.20 {
			t.Errorf("%s: compute-bound slowed %.2f× by Mem-L; want < 1.20×", spec.Name, ratio)
		}
	}
}

func TestMemoryBoundScalesWithMemClock(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		k := memoryKernel(8 * spec.SMCount)
		tH := runAt(t, spec, k, clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqHigh}).Time
		tM := runAt(t, spec, k, clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqMid}).Time
		if tM <= tH*1.5 {
			t.Errorf("%s: memory-bound time grew only %.2f× at Mem-M; want > 1.5×", spec.Name, tM/tH)
		}
	}
}

func TestMemoryBoundInsensitiveToCoreClockAtLowMem(t *testing.T) {
	// Fig. 2: at Mem-M/L, streamcluster performance is flat in core clock.
	for _, spec := range arch.AllBoards() {
		k := memoryKernel(8 * spec.SMCount)
		tHM := runAt(t, spec, k, clock.Pair{Core: arch.FreqHigh, Mem: arch.FreqMid}).Time
		tMM := runAt(t, spec, k, clock.Pair{Core: arch.FreqMid, Mem: arch.FreqMid}).Time
		if ratio := tMM / tHM; ratio > 1.25 {
			t.Errorf("%s: memory-bound at Mem-M slowed %.2f× by Core-M; want ≈ flat", spec.Name, ratio)
		}
	}
}

func TestKeplerOutperformsTeslaOnCompute(t *testing.T) {
	k680 := computeKernel(8 * arch.GTX680().SMCount)
	k285 := computeKernel(8 * arch.GTX285().SMCount)
	t680 := runAt(t, arch.GTX680(), k680, clock.DefaultPair()).Time
	t285 := runAt(t, arch.GTX285(), k285, clock.DefaultPair()).Time
	// Same per-SM work, but GTX 680 has vastly more throughput per SM.
	perWork680 := t680 / float64(8*arch.GTX680().SMCount)
	perWork285 := t285 / float64(8*arch.GTX285().SMCount)
	if perWork680 >= perWork285 {
		t.Errorf("GTX 680 per-block compute time %.3g ≥ GTX 285's %.3g", perWork680, perWork285)
	}
}

func TestOccupancyLimits(t *testing.T) {
	spec := arch.GTX680()
	sim := New(spec, clock.NewState(spec))

	k := computeKernel(100)
	blocks, warps := sim.Occupancy(k)
	if blocks <= 0 || warps <= 0 || warps > spec.MaxWarpsPerSM {
		t.Fatalf("Occupancy = (%d, %d) out of range", blocks, warps)
	}

	// Shared memory cap: one block hogging all shared memory.
	k.SharedPerBlock = spec.SharedMemPerSM
	if b, _ := sim.Occupancy(k); b != 1 {
		t.Errorf("shared-mem-hog occupancy = %d blocks/SM, want 1", b)
	}
	k.SharedPerBlock = 0

	// Register cap.
	k.RegsPerThread = 256
	b, _ := sim.Occupancy(k)
	if want := spec.RegistersPerSM / (256 * k.ThreadsPerBlock); b > max(want, 1) {
		t.Errorf("register-hog occupancy = %d blocks/SM, want ≤ %d", b, max(want, 1))
	}
}

func TestWaveTailEffect(t *testing.T) {
	// N+1 waves of blocks must not run faster than proportionally to N+1.
	spec := arch.GTX480()
	sim := New(spec, clock.NewState(spec))
	k := computeKernel(1)
	blocksPerSM, _ := sim.Occupancy(k)
	wave := spec.SMCount * blocksPerSM

	k.Blocks = wave
	full, err := sim.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	k.Blocks = wave + 1
	straggler, err := sim.RunKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	if straggler.Time < full.Time*1.8 {
		t.Errorf("one straggler block: %.3g s vs full wave %.3g s; want ≈ 2 waves", straggler.Time, full.Time)
	}
}

func TestTeslaHasNoCacheActivity(t *testing.T) {
	res := runAt(t, arch.GTX285(), memoryKernel(240), clock.DefaultPair())
	a := res.Activities
	if a[counters.ActL1Hit] != 0 || a[counters.ActL2Hit] != 0 || a[counters.ActL1Miss] != 0 || a[counters.ActL2Miss] != 0 {
		t.Error("Tesla run produced cache activity")
	}
	if a[counters.ActDRAMRead] <= 0 {
		t.Error("Tesla memory kernel produced no DRAM reads")
	}
}

func TestCacheFiltersDRAMTraffic(t *testing.T) {
	// The same kernel with a cache-friendly working set must produce less
	// DRAM traffic on Fermi than a streaming one.
	spec := arch.GTX480()
	friendly := memoryKernel(8 * spec.SMCount)
	friendly.Phases[0].L1Hit = 0.8
	friendly.Phases[0].L2Hit = 0.8
	friendly.Phases[0].WorkingSetBytes = 4 << 10
	streaming := memoryKernel(8 * spec.SMCount)

	rf := runAt(t, spec, friendly, clock.DefaultPair())
	rs := runAt(t, spec, streaming, clock.DefaultPair())
	df := rf.Activities[counters.ActDRAMRead] + rf.Activities[counters.ActDRAMWrite]
	ds := rs.Activities[counters.ActDRAMRead] + rs.Activities[counters.ActDRAMWrite]
	if df >= ds*0.5 {
		t.Errorf("cache-friendly DRAM traffic %.3g not well below streaming %.3g", df, ds)
	}
	if rf.Time >= rs.Time {
		t.Errorf("cache-friendly kernel (%.3g s) not faster than streaming (%.3g s)", rf.Time, rs.Time)
	}
}

func TestActivityAccounting(t *testing.T) {
	spec := arch.GTX680()
	res := runAt(t, spec, memoryKernel(8*spec.SMCount), clock.DefaultPair())
	a := res.Activities
	// L1 hits + misses = all transactions; L2 hits + misses = L1 misses.
	txns := a[counters.ActGlobalLoadTxn] + a[counters.ActGlobalStoreTxn]
	if got := a[counters.ActL1Hit] + a[counters.ActL1Miss]; math.Abs(got-txns) > txns*1e-6 {
		t.Errorf("L1 hits+misses = %.6g, want %.6g", got, txns)
	}
	if got := a[counters.ActL2Hit] + a[counters.ActL2Miss]; math.Abs(got-a[counters.ActL1Miss]) > a[counters.ActL1Miss]*1e-6 {
		t.Errorf("L2 hits+misses = %.6g, want %.6g", got, a[counters.ActL1Miss])
	}
	if a[counters.ActInstIssued] < a[counters.ActInstExecuted] {
		t.Error("issued < executed")
	}
	if a[counters.ActElapsedCycles] <= 0 || a[counters.ActActiveCycles] <= 0 {
		t.Error("cycle activities not positive")
	}
	if occ := a[counters.ActOccupancy]; occ <= 0 || occ > 1 {
		t.Errorf("occupancy %g out of (0,1]", occ)
	}
}

func TestValidateRejectsBadKernels(t *testing.T) {
	bads := []*KernelDesc{
		{Name: "no-grid", ThreadsPerBlock: 256, Phases: []PhaseDesc{{WarpInstsPerWarp: 1, IssueEff: 1, MLP: 1}}},
		{Name: "huge-block", Blocks: 1, ThreadsPerBlock: 2048, Phases: []PhaseDesc{{WarpInstsPerWarp: 1, IssueEff: 1, MLP: 1}}},
		{Name: "no-phase", Blocks: 1, ThreadsPerBlock: 256},
		{Name: "bad-mix", Blocks: 1, ThreadsPerBlock: 256, Phases: []PhaseDesc{{WarpInstsPerWarp: 1, FracALU: 0.8, FracMem: 0.5, IssueEff: 1, MLP: 1}}},
		{Name: "zero-mlp", Blocks: 1, ThreadsPerBlock: 256, Phases: []PhaseDesc{{WarpInstsPerWarp: 1, FracMem: 0.5, IssueEff: 1}}},
		{Name: "bad-issue", Blocks: 1, ThreadsPerBlock: 256, Phases: []PhaseDesc{{WarpInstsPerWarp: 1, IssueEff: 0}}},
		{Name: "bad-txn", Blocks: 1, ThreadsPerBlock: 256, Phases: []PhaseDesc{{WarpInstsPerWarp: 1, FracMem: 0.1, TxnPerMemInst: 64, IssueEff: 1, MLP: 1}}},
	}
	spec := arch.GTX480()
	sim := New(spec, clock.NewState(spec))
	for _, k := range bads {
		if _, err := sim.RunKernel(k); err == nil {
			t.Errorf("RunKernel accepted invalid kernel %q", k.Name)
		}
	}
}

// TestValidateReportsFirstBadFraction pins the order in which Validate
// checks the [0,1] fractions: a phase with several out-of-range fields
// always names the first in declaration order, call after call.
func TestValidateReportsFirstBadFraction(t *testing.T) {
	p := PhaseDesc{Name: "p", WarpInstsPerWarp: 1, IssueEff: 1, MLP: 1,
		DivergentFrac: 2, StoreFrac: -1, L1Hit: 5, L2Hit: 7}
	const want = `gpu: phase "p": DivergentFrac = 2 out of [0,1]`
	for i := 0; i < 100; i++ {
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %s", i, err, want)
		}
	}
}

// TestValidateAllocs pins Validate's cost on a valid kernel: every launch
// validates, so it must not allocate.
func TestValidateAllocs(t *testing.T) {
	k := memoryKernel(100)
	k.Phases = append(k.Phases, computeKernel(100).Phases...)
	if n := testing.AllocsPerRun(100, func() {
		if err := k.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v objects per call, want 0", n)
	}
}

func TestDeterminism(t *testing.T) {
	spec := arch.GTX460()
	k := memoryKernel(100)
	a := runAt(t, spec, k, clock.DefaultPair())
	b := runAt(t, spec, k, clock.DefaultPair())
	if a.Time != b.Time {
		t.Errorf("nondeterministic time: %g vs %g", a.Time, b.Time)
	}
	if a.Activities != b.Activities {
		t.Error("nondeterministic activities")
	}
}

func TestTimeMonotoneInWorkProperty(t *testing.T) {
	// Property: more blocks never run faster, up to the architecture's
	// timing-irregularity band (the per-grid deviation is ±irr, so two
	// grids can differ by at most (1+irr)/(1−irr) beyond the true ratio).
	spec := arch.GTX680()
	sim := New(spec, clock.NewState(spec))
	tol := (1 + spec.TimingIrregularity) / (1 - spec.TimingIrregularity)
	f := func(b1, b2 uint16) bool {
		n1, n2 := int(b1%2000)+1, int(b2%2000)+1
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		k1, k2 := computeKernel(n1), computeKernel(n2)
		r1, err1 := sim.RunKernel(k1)
		r2, err2 := sim.RunKernel(k2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Time <= r2.Time*tol*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSlowerClocksNeverSpeedUpProperty(t *testing.T) {
	// Property: lowering either clock never reduces execution time.
	for _, spec := range arch.AllBoards() {
		for _, k := range []*KernelDesc{computeKernel(4 * spec.SMCount), memoryKernel(4 * spec.SMCount)} {
			base := runAt(t, spec, k, clock.DefaultPair()).Time
			for _, p := range clock.ValidPairs(spec) {
				if got := runAt(t, spec, k, p).Time; got < base*(1-1e-9) {
					t.Errorf("%s %s %s: time %.4g below (H-H) time %.4g", spec.Name, k.Name, p, got, base)
				}
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
