package driver

import (
	"reflect"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/meter"
)

// runAcrossPairs runs the kernel at every valid pair (profiling on, so the
// counter-jitter stream is exercised too) and returns the results.
func runAcrossPairs(t *testing.T, d *Device, seed int64) []*RunResult {
	t.Helper()
	d.Seed(seed)
	d.EnableProfiler()
	defer d.DisableProfiler()
	k := testKernel(4 * d.Spec().SMCount)
	var out []*RunResult
	for _, p := range clock.ValidPairs(d.Spec()) {
		if err := d.SetClocks(p); err != nil {
			t.Fatal(err)
		}
		rr, err := d.RunMetered("w", []*gpu.KernelDesc{k}, 0.02, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rr)
	}
	return out
}

// TestCachedLaunchesMatchUncached is the cache-correctness guarantee: a
// device using its launch cache produces byte-identical RunResults
// (trace, measurement samples, profiler counters — noise included) to a
// device with caching disabled, because nothing stochastic is ever cached.
func TestCachedLaunchesMatchUncached(t *testing.T) {
	const seed = 42
	cached, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	uncached.DisableLaunchCache()

	// Two rounds on the cached device: the first populates, the second is
	// all hits. Both must equal the uncached reference run.
	for round := 0; round < 2; round++ {
		got := runAcrossPairs(t, cached, seed)
		want := runAcrossPairs(t, uncached, seed)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d, pair #%d: cached result differs from uncached", round, i)
			}
		}
	}
}

// TestSecondDeviceReproducesUncached: a second device of a board that
// another device already ran reproduces the uncached results.
func TestSecondDeviceReproducesUncached(t *testing.T) {
	const seed = 7
	warm, err := OpenBoard("GTX 460")
	if err != nil {
		t.Fatal(err)
	}
	runAcrossPairs(t, warm, seed) // fill the first device's cache

	second, err := OpenBoard("GTX 460")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenBoard("GTX 460")
	if err != nil {
		t.Fatal(err)
	}
	ref.DisableLaunchCache()
	got := runAcrossPairs(t, second, seed)
	want := runAcrossPairs(t, ref, seed)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("pair #%d: second device's result differs from uncached", i)
		}
	}
}

// TestMutatedSpecLeavesStockLaunchesIntact guards the ablation hazard: a
// modified spec that keeps its board name must neither change the stock
// board's launches nor be served them.
func TestMutatedSpecLeavesStockLaunchesIntact(t *testing.T) {
	stock := arch.GTX680()
	flat := arch.GTX680()
	flat.CoreVoltLow = flat.CoreVoltHigh
	flat.MemVoltLow = flat.MemVoltHigh
	flat.VoltExponent = 1

	dStock, err := OpenSpec(stock)
	if err != nil {
		t.Fatal(err)
	}
	dFlat, err := OpenSpec(flat)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenSpec(arch.GTX680())
	if err != nil {
		t.Fatal(err)
	}
	ref.DisableLaunchCache()
	k := testKernel(4 * stock.SMCount)
	flatDiffers := false
	for _, p := range clock.ValidPairs(stock) {
		for _, d := range []*Device{dStock, dFlat, ref} {
			if err := d.SetClocks(p); err != nil {
				t.Fatal(err)
			}
		}
		ls, err := dStock.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := dFlat.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := ref.Launch(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ls, lr) {
			t.Errorf("%s: stock-board launch corrupted (possibly by a mutated-spec cache entry)", p)
		}
		if !reflect.DeepEqual(lf.Trace, ls.Trace) {
			flatDiffers = true
		}
	}
	// The flattened voltage curve must change power at scaled-down pairs;
	// if it never does, the two specs were conflated somewhere.
	if !flatDiffers {
		t.Error("voltage-flat spec produced the stock power trace at every pair")
	}
}

// TestKernelFingerprintSensitivity: distinct descriptions must hash apart.
func TestKernelFingerprintSensitivity(t *testing.T) {
	base := testKernel(64)
	same := *base
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("identical kernels hash differently")
	}
	mutations := []func(*gpu.KernelDesc){
		func(k *gpu.KernelDesc) { k.Name = "other" },
		func(k *gpu.KernelDesc) { k.Blocks++ },
		func(k *gpu.KernelDesc) { k.ThreadsPerBlock++ },
		func(k *gpu.KernelDesc) { k.RegsPerThread++ },
		func(k *gpu.KernelDesc) { k.SharedPerBlock += 16 },
		func(k *gpu.KernelDesc) { k.Phases[0].FracALU += 1e-9 },
		func(k *gpu.KernelDesc) { k.Phases[0].ActivityFactor = 1.5 },
	}
	for i, mutate := range mutations {
		m := *base
		m.Phases = append([]gpu.PhaseDesc(nil), base.Phases...)
		mutate(&m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutation #%d did not change the fingerprint", i)
		}
	}
}

// TestLaunchResultTraceIsolated: mutating a returned trace must not
// corrupt the cache (Trace.Append mutates in place, so Launch must copy).
func TestLaunchResultTraceIsolated(t *testing.T) {
	d, err := OpenBoard("GTX 285")
	if err != nil {
		t.Fatal(err)
	}
	k := testKernel(4 * d.Spec().SMCount)
	first, err := d.Launch(k)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), traceWatts(first.Trace)...)
	first.Trace = first.Trace.Append(123, first.Trace[len(first.Trace)-1].Watts) // in-place growth
	first.Trace[0].Watts = -1
	second, err := d.Launch(k) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if got := traceWatts(second.Trace); !reflect.DeepEqual(got, want) {
		t.Fatal("cached trace was corrupted through a caller's mutation")
	}
}

// traceWatts flattens a trace's power levels for comparison.
func traceWatts(tr meter.Trace) []float64 {
	out := make([]float64, len(tr))
	for i, s := range tr {
		out[i] = s.Watts
	}
	return out
}
