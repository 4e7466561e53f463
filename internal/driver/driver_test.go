package driver

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/bios"
	"gpuperf/internal/clock"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
)

func testKernel(blocks int) *gpu.KernelDesc {
	return &gpu.KernelDesc{
		Name:            "k",
		Blocks:          blocks,
		ThreadsPerBlock: 256,
		RegsPerThread:   20,
		Phases: []gpu.PhaseDesc{{
			Name:             "p",
			WarpInstsPerWarp: 30000,
			FracALU:          0.6,
			FracMem:          0.1,
			FracBranch:       0.05,
			TxnPerMemInst:    2,
			StoreFrac:        0.25,
			L1Hit:            0.4, L2Hit: 0.4,
			WorkingSetBytes: 256 << 10,
			MLP:             6,
			IssueEff:        0.85,
		}},
	}
}

func TestOpenBoardBootsAtDefault(t *testing.T) {
	for _, spec := range arch.AllBoards() {
		d, err := OpenBoard(spec.Name)
		if err != nil {
			t.Fatalf("OpenBoard(%q): %v", spec.Name, err)
		}
		if d.Spec().Name != spec.Name {
			t.Errorf("booted %q, want %q", d.Spec().Name, spec.Name)
		}
		if d.Clocks() != clock.DefaultPair() {
			t.Errorf("%s: boot clocks %s, want (H-H)", spec.Name, d.Clocks())
		}
		if got, want := d.CounterSet().Len(), map[arch.Generation]int{arch.Tesla: 32, arch.Fermi: 74, arch.Kepler: 108}[spec.Generation]; got != want {
			t.Errorf("%s: %d counters, want %d", spec.Name, got, want)
		}
	}
}

func TestOpenRejectsUnknownBoard(t *testing.T) {
	if _, err := OpenBoard("GTX 9999"); err == nil {
		t.Error("OpenBoard accepted unknown board")
	}
	spec := arch.GTX680()
	img := bios.Build(spec)
	copy(img[8:8+32], make([]byte, 32))
	copy(img[8:], "Radeon HD 5870")
	bios.FixChecksum(img)
	if _, err := Open(img); err == nil {
		t.Error("Open accepted image for unknown board")
	}
}

func TestOpenRejectsCorruptImage(t *testing.T) {
	img := bios.Build(arch.GTX460())
	img[70]++
	if _, err := Open(img); err == nil {
		t.Error("Open accepted corrupt image")
	}
}

func TestOpenRejectsClockTableMismatch(t *testing.T) {
	// An image whose frequency table disagrees with the board spec must
	// not boot (it would silently run at the wrong clocks).
	img := bios.Build(arch.GTX680())
	img[64+2] = 0xFF // clobber core MHz of level L
	img[64+3] = 0x01
	bios.FixChecksum(img)
	if _, err := Open(img); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("Open err = %v, want clock-table mismatch", err)
	}
}

func TestSetClocksPatchesAndReboots(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	target := clock.Pair{Core: arch.FreqMid, Mem: arch.FreqLow}
	if err := d.SetClocks(target); err != nil {
		t.Fatal(err)
	}
	if d.Clocks() != target {
		t.Errorf("clocks %s after SetClocks, want %s", d.Clocks(), target)
	}
	// The change must be visible in the backing image too.
	decoded, err := bios.Parse(d.img)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Boot != target {
		t.Errorf("VBIOS boot pair %s, want %s", decoded.Boot, target)
	}
}

func TestSetClocksRejectsInvalidPair(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), d.img...)
	err = d.SetClocks(clock.Pair{Core: arch.FreqLow, Mem: arch.FreqLow})
	if err == nil {
		t.Fatal("SetClocks accepted (L-L) on GTX 680")
	}
	if want := "driver: bios: GTX 680 does not expose pair (L-L)"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	if d.Clocks() != clock.DefaultPair() || !bytes.Equal(d.img, before) {
		t.Error("failed SetClocks changed device state")
	}
}

// TestSetClocksRebootVerifiesChecksum: the reboot checks the image's
// checksum, so an image corrupted outside a fault campaign fails the
// reboot with a non-transient error.
func TestSetClocksRebootVerifiesChecksum(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	d.img[20]++
	err = d.SetClocks(clock.Pair{Core: arch.FreqMid, Mem: arch.FreqHigh})
	if err == nil || !errors.Is(err, bios.ErrChecksum) || err.Error() != "driver: reboot failed: bios: checksum mismatch" {
		t.Fatalf("SetClocks on a corrupt image: %v", err)
	}
	if _, transient := fault.PointOf(err); transient {
		t.Error("a corrupt image without an injected flip is reported as transient")
	}
	if d.Clocks() != clock.DefaultPair() {
		t.Errorf("clocks = %s after a failed reboot, want (H-H)", d.Clocks())
	}
}

// TestReleaseDropsNoiseSource: a released device gives its source back
// and fails loudly if it is used again; releasing twice is a no-op.
func TestReleaseDropsNoiseSource(t *testing.T) {
	a, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	a.Release()
	if a.noise != nil {
		t.Fatal("released device keeps its noise source")
	}
	b, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	if b.noise == c.noise {
		t.Fatal("two live devices share a noise source")
	}
	defer func() {
		if recover() == nil {
			t.Error("seeding a released device did not panic")
		}
	}()
	a.Seed(1)
}

func TestLaunchProducesTraceAndTime(t *testing.T) {
	d, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	lr, err := d.Launch(testKernel(4 * d.Spec().SMCount))
	if err != nil {
		t.Fatal(err)
	}
	if lr.Time <= 0 {
		t.Error("non-positive launch time")
	}
	if got := lr.Trace.TotalDuration(); !approx(got, lr.Time, 1e-9) {
		t.Errorf("trace duration %g != launch time %g", got, lr.Time)
	}
	if w := lr.Trace.TrueAvgWatts(); w < 100 || w > 400 {
		t.Errorf("system power %g W implausible for a loaded GTX 480 machine", w)
	}
	if lr.Counters != nil {
		t.Error("counters collected without profiling enabled")
	}
}

func TestProfilerCollectsCounters(t *testing.T) {
	d, err := OpenBoard("GTX 285")
	if err != nil {
		t.Fatal(err)
	}
	d.EnableProfiler()
	lr, err := d.Launch(testKernel(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Counters) != 32 {
		t.Fatalf("%d counters, want 32 on Tesla", len(lr.Counters))
	}
	var nonzero int
	for _, c := range lr.Counters {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < 10 {
		t.Errorf("only %d counters nonzero; kernel activity should light up most", nonzero)
	}
	d.DisableProfiler()
	lr2, _ := d.Launch(testKernel(120))
	if lr2.Counters != nil {
		t.Error("counters collected after DisableProfiler")
	}
}

func TestRunMeteredStretchesShortRuns(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	k := testKernel(2 * d.Spec().SMCount) // short kernel
	single, err := d.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := d.RunMetered("short", []*gpu.KernelDesc{k}, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Time < 0.5 {
		t.Errorf("metered run covers %g s, want ≥ 0.5 s", rr.Time)
	}
	wantIters := int(0.5/single.Time) + 1
	if rr.Iterations != wantIters {
		t.Errorf("%d iterations, want %d", rr.Iterations, wantIters)
	}
	if got := rr.TimePerIteration(); !approx(got, single.Time, 1e-6) {
		t.Errorf("TimePerIteration %g, want %g", got, single.Time)
	}
	if len(rr.Measurement.Samples) < 10 {
		t.Errorf("only %d meter samples, want ≥ 10", len(rr.Measurement.Samples))
	}
	if rr.EnergyPerIteration() <= 0 {
		t.Error("non-positive energy per iteration")
	}
}

func TestRunMeteredEnergyConsistency(t *testing.T) {
	d, err := OpenBoard("GTX 460")
	if err != nil {
		t.Fatal(err)
	}
	d.Seed(99)
	k := testKernel(8 * d.Spec().SMCount)
	rr, err := d.RunMetered("w", []*gpu.KernelDesc{k}, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Measured energy per iteration should be within a few percent of the
	// oracle (trace) energy per iteration: sampling + noise only.
	oracle := rr.Trace.TrueEnergy() / float64(rr.Iterations)
	got := rr.EnergyPerIteration()
	if !approx(got, oracle, 0.05) {
		t.Errorf("EnergyPerIteration %g vs oracle %g", got, oracle)
	}
}

func TestRunMeteredRejectsEmptyWorkload(t *testing.T) {
	d, err := OpenBoard("GTX 460")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunMetered("empty", nil, 0, 0.5); err == nil {
		t.Error("RunMetered accepted empty workload")
	}
}

func TestDifferentPairsChangeMeasuredEnergy(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	k := testKernel(8 * d.Spec().SMCount)
	rrH, err := d.RunMetered("w", []*gpu.KernelDesc{k}, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetClocks(clock.Pair{Core: arch.FreqMid, Mem: arch.FreqHigh}); err != nil {
		t.Fatal(err)
	}
	rrM, err := d.RunMetered("w", []*gpu.KernelDesc{k}, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rrM.TimePerIteration() <= rrH.TimePerIteration() {
		t.Error("lowering the core clock did not slow the kernel")
	}
	if rrM.Measurement.AvgWatts >= rrH.Measurement.AvgWatts {
		t.Error("lowering the core clock did not cut wall power")
	}
}

func approx(a, b, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= rel*(1+b)
}
