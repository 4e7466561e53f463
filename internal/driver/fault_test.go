package driver

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/bios"
	"gpuperf/internal/clock"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
)

func faultCampaign(t *testing.T, spec string, seed int64) *fault.Campaign {
	t.Helper()
	p, err := fault.ParseProfile(spec)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", spec, err)
	}
	return &fault.Campaign{Profile: p, Seed: seed}
}

func TestBootFailInjection(t *testing.T) {
	c := faultCampaign(t, "boot.fail:1", 1)
	_, err := OpenBoardWithFaults("GTX 680", c.Injector("GTX 680", 0))
	if err == nil {
		t.Fatal("certain boot failure still booted")
	}
	if pt, ok := fault.PointOf(err); !ok || pt != fault.BootFail {
		t.Errorf("boot failure is not an injected boot.fail: %v", err)
	}
	// Zero probability boots normally and leaves the injector attached.
	c0 := faultCampaign(t, "boot.fail:0,launch.hang:0", 1)
	d, err := OpenBoardWithFaults("GTX 680", c0.Injector("GTX 680", 0))
	if err != nil {
		t.Fatalf("zero-probability boot failed: %v", err)
	}
	if d.faults == nil || d.inst.Faults == nil {
		t.Error("injector not attached to device and meter")
	}
	// A spec-opened device behaves the same.
	if _, err := OpenSpecWithFaults(arch.GTX680(), c.Injector("spec", 0)); err == nil {
		t.Error("certain boot failure booted via OpenSpecWithFaults")
	}
}

func TestClockSetFailInjection(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	before := d.Clocks()
	c := faultCampaign(t, "clockset.fail:1", 2)
	d.AttachFaults(c.Injector("s", 0))
	err = d.SetClocks(clock.Pair{Core: arch.FreqMid, Mem: arch.FreqLow})
	if err == nil {
		t.Fatal("certain clock-set failure succeeded")
	}
	if pt, ok := fault.PointOf(err); !ok || pt != fault.ClockSetFail {
		t.Errorf("clock-set failure is not an injected clockset.fail: %v", err)
	}
	if d.Clocks() != before {
		t.Errorf("failed clock set moved the clocks: %s -> %s", before, d.Clocks())
	}
	// Detaching restores the plain path.
	d.AttachFaults(nil)
	if err := d.SetClocks(clock.Pair{Core: arch.FreqMid, Mem: arch.FreqLow}); err != nil {
		t.Fatalf("clock set after detach: %v", err)
	}
}

func TestBiosBitFlipDetectedAndRecovered(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	c := faultCampaign(t, "bios.bitflip:1", 3)
	d.AttachFaults(c.Injector("s", 0))
	target := clock.Pair{Core: arch.FreqMid, Mem: arch.FreqHigh}
	err = d.SetClocks(target)
	if err == nil {
		t.Fatal("certain bit flip went undetected")
	}
	if pt, ok := fault.PointOf(err); !ok || pt != fault.BiosBitFlip {
		t.Fatalf("flip classified as %v, %v: %v", pt, ok, err)
	}
	if !errors.Is(err, bios.ErrChecksum) {
		t.Errorf("flip not reported as a checksum mismatch: %v", err)
	}
	if !bios.ChecksumOK(d.img) {
		t.Error("image still corrupt after the recovery reflash")
	}
	// Recovery reflashed the golden image: with faults detached the same
	// request must now succeed and the device must still launch kernels.
	d.AttachFaults(nil)
	if err := d.SetClocks(target); err != nil {
		t.Fatalf("clock set after bit-flip recovery: %v", err)
	}
	if d.Clocks() != target {
		t.Errorf("clocks = %s, want %s", d.Clocks(), target)
	}
	if _, err := d.Launch(testKernel(200)); err != nil {
		t.Fatalf("launch after recovery: %v", err)
	}
}

func TestLaunchHangKilledByWatchdog(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	c := faultCampaign(t, "launch.hang:1", 4)
	d.AttachFaults(c.Injector("s", 0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = d.RunMeteredCtx(ctx, "w", []*gpu.KernelDesc{testKernel(200)}, 0, 0.5)
	if err == nil {
		t.Fatal("hung launch completed")
	}
	if pt, ok := fault.PointOf(err); !ok || pt != fault.LaunchHang {
		t.Fatalf("hang classified as %v, %v: %v", pt, ok, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("watchdog took %v to kill the hang", elapsed)
	}
	// Without a watchdog (Background's Done channel is nil) the hang must
	// fail fast instead of blocking the harness forever.
	d.AttachFaults(c.Injector("s", 1))
	if _, err := d.RunMeteredCtx(context.Background(), "w", []*gpu.KernelDesc{testKernel(200)}, 0, 0.5); err == nil {
		t.Fatal("unwatched hang did not fail")
	}
}

func TestLaunchCorruptOnlyUnderProfiling(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	c := faultCampaign(t, "launch.corrupt:1", 5)
	d.AttachFaults(c.Injector("s", 0))
	// Unprofiled runs have no counter readout to corrupt.
	if _, err := d.RunMeteredCtx(context.Background(), "w", []*gpu.KernelDesc{testKernel(200)}, 0, 0.5); err != nil {
		t.Fatalf("unprofiled run failed: %v", err)
	}
	d.EnableProfiler()
	_, err = d.RunMeteredCtx(context.Background(), "w", []*gpu.KernelDesc{testKernel(200)}, 0, 0.5)
	if err == nil {
		t.Fatal("corrupted profiled readout not reported")
	}
	if pt, ok := fault.PointOf(err); !ok || pt != fault.LaunchCorrupt {
		t.Fatalf("corruption classified as %v, %v: %v", pt, ok, err)
	}
}

func TestRunMeteredCtxMatchesPlainPathWhenInert(t *testing.T) {
	run := func(attach bool) *RunResult {
		d, err := OpenBoard("GTX 680")
		if err != nil {
			t.Fatal(err)
		}
		d.Seed(99)
		if attach {
			c := faultCampaign(t, "launch.hang:0,meter.drop:0", 6)
			d.AttachFaults(c.Injector("s", 0))
		}
		rr, err := d.RunMeteredCtx(context.Background(), "w", []*gpu.KernelDesc{testKernel(200)}, 0.01, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	plain, wired := run(false), run(true)
	if plain.Measurement.EnergyJoules != wired.Measurement.EnergyJoules ||
		plain.Measurement.AvgWatts != wired.Measurement.AvgWatts {
		t.Errorf("zero-probability injector perturbed the measurement: %v vs %v",
			plain.Measurement.EnergyJoules, wired.Measurement.EnergyJoules)
	}
	if wired.Measurement.Valid != nil {
		t.Error("zero-probability injector allocated a validity mask")
	}
}

func TestSeedScopedStreams(t *testing.T) {
	measure := func(prep func(d *Device)) float64 {
		d, err := OpenBoard("GTX 680")
		if err != nil {
			t.Fatal(err)
		}
		d.Seed(42)
		prep(d)
		rr, err := d.RunMetered("w", []*gpu.KernelDesc{testKernel(200)}, 0, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Measurement.EnergyJoules
	}
	a := measure(func(d *Device) { d.SeedScoped("pair|(H-L)") })
	b := measure(func(d *Device) { d.SeedScoped("pair|(H-L)") })
	if a != b {
		t.Errorf("same scope tag produced different noise: %v vs %v", a, b)
	}
	// Draining draws elsewhere must not shift a scoped stream: re-scoping
	// restores it exactly (the property retries rely on).
	c := measure(func(d *Device) {
		d.SeedScoped("pair|(L-L)")
		d.noise.Rand.Float64()
		d.noise.Rand.Float64()
		d.SeedScoped("pair|(H-L)")
	})
	if a != c {
		t.Errorf("scoped stream shifted by prior draws: %v vs %v", a, c)
	}
	other := measure(func(d *Device) { d.SeedScoped("pair|(L-L)") })
	if a == other {
		t.Error("different scope tags produced identical noise (possible but unlikely)")
	}
	// SeedScoped derives from the base seed, so different base seeds give
	// different scoped streams.
	d2, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	d2.Seed(43)
	d2.SeedScoped("pair|(H-L)")
	rr, err := d2.RunMetered("w", []*gpu.KernelDesc{testKernel(200)}, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Measurement.EnergyJoules == a {
		t.Error("different base seeds produced identical scoped noise (possible but unlikely)")
	}
}

func TestPushHelpersSaveAndRestore(t *testing.T) {
	wasOn := LaunchCachingEnabled()
	restore := PushLaunchCachingEnabled(!wasOn)
	if LaunchCachingEnabled() == wasOn {
		t.Error("PushLaunchCachingEnabled did not flip the switch")
	}
	restore()
	if LaunchCachingEnabled() != wasOn {
		t.Error("restore did not put the caching switch back")
	}
}
