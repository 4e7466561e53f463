package driver

import (
	"reflect"
	"strings"
	"testing"

	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/obs"
)

// TestPrecomputePairsMatchesUncached is the batched-launch guarantee at
// the driver layer: a device that adopted PrecomputePairs' table produces
// byte-identical metered results to an uncached reference, a second
// precompute counts no miss, and a second device, which shares nothing
// with the first, counts every entry and matches too.
func TestPrecomputePairsMatchesUncached(t *testing.T) {
	pre, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	ref.DisableLaunchCache()
	k := testKernel(4 * pre.Spec().SMCount)
	pairs := clock.ValidPairs(pre.Spec())

	// runAcrossPairs launches under the profiler; the unprofiled
	// precompute serves it all the same.
	n, err := pre.PrecomputePairs([]*gpu.KernelDesc{k}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) {
		t.Fatalf("first precompute simulated %d entries, want %d", n, len(pairs))
	}
	got := runAcrossPairs(t, pre, 42)
	want := runAcrossPairs(t, ref, 42)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("pair #%d: precomputed result differs from uncached", i)
		}
	}

	// Idempotence: everything is cached now.
	n, err = pre.PrecomputePairs([]*gpu.KernelDesc{k}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("second precompute simulated %d entries, want 0", n)
	}

	// Payloads stay with the device that computed them: a second device
	// simulates every entry itself and still reproduces the reference.
	second, err := OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	n, err = second.PrecomputePairs([]*gpu.KernelDesc{k}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) {
		t.Fatalf("second device's precompute simulated %d entries, want %d", n, len(pairs))
	}
	got = runAcrossPairs(t, second, 42)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("pair #%d: second device's result differs from uncached", i)
		}
	}
}

// TestProfiledLaunchHitsUnprofiledPrecompute: the profiler only adds
// counter jitter after the cache lookup, so a profiled launch at a pair an
// unprofiled precompute adopted is served from the device's table.
func TestProfiledLaunchHitsUnprofiledPrecompute(t *testing.T) {
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	d.Observe(rec, rec.Track("t"))
	k := testKernel(4 * d.Spec().SMCount)
	if _, err := d.PrecomputePairs([]*gpu.KernelDesc{k}, []clock.Pair{d.Clocks()}); err != nil {
		t.Fatal(err)
	}
	d.EnableProfiler()
	lr, err := d.Launch(k)
	d.DisableProfiler()
	if err != nil {
		t.Fatal(err)
	}
	if lr.Counters == nil {
		t.Fatal("profiled launch returned no counters")
	}
	var b strings.Builder
	if err := rec.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`driver_launch_cache_hits_total{board="GTX 680",cache="device"} 1`,
		`driver_launch_cache_misses_total{board="GTX 680"} 1`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

// TestPrecomputePairsDisabled: with caching off the call is a no-op.
func TestPrecomputePairsDisabled(t *testing.T) {
	d, err := OpenBoard("GTX 285")
	if err != nil {
		t.Fatal(err)
	}
	d.DisableLaunchCache()
	k := testKernel(4 * d.Spec().SMCount)
	n, err := d.PrecomputePairs([]*gpu.KernelDesc{k}, clock.ValidPairs(d.Spec()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cache-disabled precompute simulated %d entries, want 0", n)
	}
	if _, err := d.Launch(k); err != nil {
		t.Fatal(err)
	}
}
