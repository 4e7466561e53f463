package driver

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/gpu"
	"gpuperf/internal/obs"
	"gpuperf/internal/workloads"
)

// backpropTable builds the benchmark's timing table on a GTX 680 at
// every valid pair.
func backpropTable(tb testing.TB) *gpu.TimingTable {
	tb.Helper()
	spec := arch.GTX680()
	tab, err := gpu.NewTimingTable(spec, workloads.ByName("backprop").Kernels(1), clock.ValidPairs(spec))
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// TestPrecomputeTableMatchesUncached: devices that differ from the base
// board only in the power half fill their caches from the base board's
// table, and each measures byte-identically to its own uncached
// reference — the table lends timing, each payload keeps its own watts.
func TestPrecomputeTableMatchesUncached(t *testing.T) {
	base := arch.GTX680()
	k := testKernel(4 * base.SMCount)
	pairs := clock.ValidPairs(base)
	tab, err := gpu.NewTimingTable(base, []*gpu.KernelDesc{k}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var watts []uint64
	for _, scale := range []float64{1, 1.02, 1.05} {
		spec := jittered(base, scale)
		d, err := OpenSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := OpenSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref.DisableLaunchCache()
		n, err := d.PrecomputeTable(tab, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(pairs) {
			t.Fatalf("precompute built %d payloads, want %d", n, len(pairs))
		}
		// runAcrossPairs launches a fresh descriptor equal to the table's:
		// it hashes to the table's fingerprint and hits.
		got := runAcrossPairs(t, d, 42)
		want := runAcrossPairs(t, ref, 42)
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("scale %g, pair #%d: table-built result differs from uncached", scale, i)
			}
		}
		watts = append(watts, math.Float64bits(got[0].Measurement.AvgWatts))
		if n, err := d.PrecomputeTable(tab, pairs); err != nil || n != 0 {
			t.Fatalf("second precompute built %d payloads (%v), want 0", n, err)
		}
	}
	if watts[0] == watts[1] || watts[1] == watts[2] {
		t.Fatalf("jittered devices read bit-identical watts %#x: payloads are not their own", watts)
	}
}

// TestPrecomputeTableRefusesOtherTimingHalf: a table is only valid for
// devices whose timing half equals the one it was built for; one field
// of difference is enough to refuse it.
func TestPrecomputeTableRefusesOtherTimingHalf(t *testing.T) {
	tab := backpropTable(t)
	spec := arch.GTX680()
	spec.SMCount++
	d, err := OpenSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.PrecomputeTable(tab, tab.Pairs())
	if err == nil || !strings.Contains(err.Error(), "another timing half") {
		t.Fatalf("PrecomputeTable on a different timing half: err = %v", err)
	}
	if d.table != nil || len(d.cache) != 0 {
		t.Fatal("a refused table left state on the device")
	}
}

// TestTableKernelLaunchHits: after a precompute, a launch of the table's
// own descriptor and a launch of an equal copy are both served from the
// device's cache — the first by the table's fingerprint, the second by
// hashing — and build nothing.
func TestTableKernelLaunchHits(t *testing.T) {
	tab := backpropTable(t)
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	d.Observe(rec, "t")
	if _, err := d.PrecomputeTable(tab, tab.Pairs()); err != nil {
		t.Fatal(err)
	}
	k := tab.Kernels()[0]
	copied := *k
	for _, kd := range []*gpu.KernelDesc{k, &copied} {
		if _, err := d.Launch(kd); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := rec.Metrics().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`driver_launch_cache_hits_total{board="GTX 680",cache="device"} 2`,
		`driver_launch_cache_misses_total{board="GTX 680"} ` + strconv.Itoa(len(tab.Kernels())*len(tab.Pairs())),
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

// TestPrecomputeTableDisabled: with caching off the table is neither
// read nor kept, and every launch simulates.
func TestPrecomputeTableDisabled(t *testing.T) {
	tab := backpropTable(t)
	d, err := OpenBoard("GTX 680")
	if err != nil {
		t.Fatal(err)
	}
	d.DisableLaunchCache()
	if n, err := d.PrecomputeTable(tab, tab.Pairs()); err != nil || n != 0 {
		t.Fatalf("cache-disabled precompute built %d payloads (%v), want 0", n, err)
	}
	if d.table != nil || d.LaunchCaching() {
		t.Fatal("cache-disabled device kept the table")
	}
}

// BenchmarkTimingTable builds one timing table: backprop on the GTX 680
// at every valid pair — the work a sweep call does once per (timing
// half, benchmark) instead of once per device.
func BenchmarkTimingTable(b *testing.B) {
	spec := arch.GTX680()
	bench := workloads.ByName("backprop")
	pairs := clock.ValidPairs(spec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.NewTimingTable(spec, bench.Kernels(1), pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecomputeTable is one device's share of a sweep job: folding
// the table's results into its own payloads at every pair.
func BenchmarkPrecomputeTable(b *testing.B) {
	tab := backpropTable(b)
	d, err := OpenSpec(jittered(arch.GTX680(), 1.01))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(d.cache)
		if _, err := d.PrecomputeTable(tab, tab.Pairs()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchHit times a cached launch of the table's own descriptor,
// whose fingerprint comes from the table, beside a cached launch of an
// equal copy, which still hashes every phase field.
func BenchmarkLaunchHit(b *testing.B) {
	tab := backpropTable(b)
	d, err := OpenBoard("GTX 680")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.PrecomputeTable(tab, tab.Pairs()); err != nil {
		b.Fatal(err)
	}
	k := tab.Kernels()[0]
	copied := *k
	for _, c := range []struct {
		name string
		k    *gpu.KernelDesc
	}{{"table-kernel", k}, {"copied-kernel", &copied}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.Launch(c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
