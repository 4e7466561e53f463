package driver_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/driver"
	"gpuperf/internal/fleet"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// TestPrecomputeTableMatchesUncached: every device of a timing half
// launches from its base board's table, and each launch equals an
// uncached one bit for bit. The devices are the Table I boards and the
// HD 7970 as shipped, and 50 fleet.DefaultJitter devices, which differ
// from their base board only in the power half. Each adopts the table of
// every benchmark at every valid pair. At each pair, every kernel's time,
// waveform, activities and scope joules, launched through an equal copy
// of the table's descriptor, equal those of an uncached twin, and a
// profiled metered run of the table's own descriptors equals the twin's,
// noise included. The first adoption counts one miss per kernel and
// pair, a second counts none, and each jittered device reads other
// watts than its base board: the table lends timing, each device folds
// its own watts.
func TestPrecomputeTableMatchesUncached(t *testing.T) {
	fl, err := fleet.New(42, nil, 50, fleet.DefaultJitter())
	if err != nil {
		t.Fatal(err)
	}
	type device struct{ spec, base *arch.Spec }
	var devs []device
	for _, s := range append(arch.AllBoards(), arch.RadeonHD7970()) {
		devs = append(devs, device{spec: s, base: s})
	}
	for i := 0; i < fl.Size(); i++ {
		devs = append(devs, device{spec: fl.Device(i).Spec, base: arch.BoardByName(fl.BaseNames()[i%len(fl.BaseNames())])})
	}
	benches := workloads.All()
	tables := map[string]*gpu.TimingTable{}
	baseWatts := map[string]uint64{} // first metered run of benches[0] on each stock board
	for _, dv := range devs {
		pairs := clock.ValidPairs(dv.spec)
		for bi, b := range benches {
			tab := tables[dv.base.Name+"|"+b.Name]
			if tab == nil {
				if tab, err = gpu.NewTimingTable(dv.base, b.Kernels(1), clock.ValidPairs(dv.base)); err != nil {
					t.Fatal(err)
				}
				tables[dv.base.Name+"|"+b.Name] = tab
			}
			d, ref := openPair(t, dv.spec)
			n, err := d.PrecomputeTable(tab, pairs)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(tab.Kernels()) * len(pairs); n != want {
				t.Fatalf("%s, %s: precompute counted %d misses, want %d", dv.spec.Name, b.Name, n, want)
			}
			copies := b.Kernels(1)
			for _, p := range pairs {
				for _, dev := range []*driver.Device{d, ref} {
					if err := dev.SetClocks(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, k := range copies {
					got, err := driver.LaunchBits(d, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := driver.LaunchBits(ref, k)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %s, %s at %s: table launch differs from uncached", dv.spec.Name, b.Name, k.Name, p)
					}
				}
			}
			got := meteredRuns(t, d, b, tab.Kernels(), pairs)
			want := meteredRuns(t, ref, b, tab.Kernels(), pairs)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s, %s at %s: table-served metered run differs from uncached", dv.spec.Name, b.Name, pairs[i])
				}
			}
			if n, err := d.PrecomputeTable(tab, pairs); err != nil || n != 0 {
				t.Fatalf("%s, %s: second precompute counted %d misses (%v), want 0", dv.spec.Name, b.Name, n, err)
			}
			if bi == 0 {
				w := math.Float64bits(got[0].Measurement.AvgWatts)
				if dv.spec == dv.base {
					baseWatts[dv.base.Name] = w
				} else if w == baseWatts[dv.base.Name] {
					t.Fatalf("jittered %s reads its base board's watts %#x: the fold is not its own", dv.spec.Name, w)
				}
			}
			d.Release()
			ref.Release()
		}
	}
}

// openPair boots two devices on spec: one that launches through its
// cache and tables, and its uncached twin.
func openPair(t *testing.T, spec *arch.Spec) (*driver.Device, *driver.Device) {
	t.Helper()
	d, err := driver.OpenSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := driver.OpenSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.DisableLaunchCache()
	return d, ref
}

// meteredRuns runs b's kernels at every pair under the profiler, as a
// sweep cell does, from one seed.
func meteredRuns(t *testing.T, d *driver.Device, b *workloads.Benchmark, ks []*gpu.KernelDesc, pairs []clock.Pair) []*driver.RunResult {
	t.Helper()
	d.Seed(42)
	d.EnableProfiler()
	defer d.DisableProfiler()
	out := make([]*driver.RunResult, len(pairs))
	for i, p := range pairs {
		if err := d.SetClocks(p); err != nil {
			t.Fatal(err)
		}
		rr, err := d.RunMetered(b.Name, ks, b.HostGap(1), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rr
	}
	return out
}
