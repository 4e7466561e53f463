package characterize

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
	"gpuperf/internal/workloads"
)

// powerJittered returns a renamed copy of base whose power half differs
// by k, the way a fleet device differs from its base board.
func powerJittered(base *arch.Spec, name string, k float64) *arch.Spec {
	s := *base
	s.Name = name
	s.CoreVoltHigh *= k
	s.CoreVoltLow *= k
	s.CoreLeakWatts *= k
	return &s
}

// TestTimingTablesShareOnePerKey: within one cache, every request for a
// (timing half, benchmark) gets the one table, whatever the power half
// or name of the spec asking and however many workers ask at once; a
// different timing half or benchmark gets its own.
func TestTimingTablesShareOnePerKey(t *testing.T) {
	backprop, stream := workloads.ByName("backprop"), workloads.ByName("streamcluster")
	base := arch.GTX680()
	c := newTimingTables()
	tabs := make([]*gpu.TimingTable, 16)
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tab, err := c.get(powerJittered(base, "dev", 1+float64(i)/100), backprop)
			if err != nil {
				t.Error(err)
			}
			tabs[i] = tab
		}(i)
	}
	wg.Wait()
	for _, tab := range tabs {
		if tab == nil || tab != tabs[0] {
			t.Fatal("devices of one timing half got different tables")
		}
	}
	other, err := c.get(arch.GTX480(), backprop)
	if err != nil {
		t.Fatal(err)
	}
	otherBench, err := c.get(base, stream)
	if err != nil {
		t.Fatal(err)
	}
	if other == tabs[0] || otherBench == tabs[0] || len(c.entries) != 3 {
		t.Fatalf("want 3 distinct tables, cache holds %d entries", len(c.entries))
	}
}

// TestSweepSharedTablesMatchUncached sweeps power-jittered copies of one
// board through a Boot seam, as a fleet batch does: the cached sweep,
// whose devices share one table per benchmark, equals the uncached
// reference, which builds none. Devices share time but not watts. One
// device is booted as a GTX 480 while SpecOf names a GTX 680 copy, so
// its table must follow the booted device.
func TestSweepSharedTablesMatchUncached(t *testing.T) {
	base := arch.GTX680()
	specOf := map[string]*arch.Spec{
		"dev-a": powerJittered(base, "dev-a", 1),
		"dev-b": powerJittered(base, "dev-b", 1.03),
		"dev-c": powerJittered(base, "dev-c", 1.06),
		"dev-d": powerJittered(base, "dev-d", 1.01),
	}
	booted := map[string]*arch.Spec{
		"dev-a": specOf["dev-a"], "dev-b": specOf["dev-b"], "dev-c": specOf["dev-c"],
		"dev-d": powerJittered(arch.GTX480(), "dev-d", 1.01),
	}
	names := []string{"dev-a", "dev-b", "dev-c", "dev-d"}
	benches := []*workloads.Benchmark{workloads.ByName("backprop"), workloads.ByName("streamcluster")}
	opts := SweepOptions{
		Seed:    42,
		Workers: 4,
		Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
			return driver.OpenSpecWithFaults(booted[name], in)
		},
		SpecOf: func(name string) *arch.Spec { return specOf[name] },
	}
	cached, err := Sweep(context.Background(), names, benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	restore := driver.PushLaunchCachingEnabled(false)
	uncached, err := Sweep(context.Background(), names, benches, opts)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, uncached) {
		t.Fatal("sweep over shared timing tables differs from the uncached reference")
	}
	a, b := cached["dev-a"][0].Pairs[0], cached["dev-b"][0].Pairs[0]
	if math.Float64bits(a.TimePerIter) != math.Float64bits(b.TimePerIter) {
		t.Errorf("devices of one timing half differ in time: %v vs %v", a.TimePerIter, b.TimePerIter)
	}
	if math.Float64bits(a.AvgWatts) == math.Float64bits(b.AvgWatts) {
		t.Errorf("power-jittered devices read the same watts %v", a.AvgWatts)
	}
}

// TestReplayedJobBuildsNoTable: a job whose every cell replays from the
// journal builds no timing table; a job with cells left to measure
// builds one, and both return the uninterrupted sweep's cells.
func TestReplayedJobBuildsNoTable(t *testing.T) {
	const board = "GTX 680"
	b := workloads.ByName("backprop")
	dir := t.TempDir()
	full, err := openBareJournal(filepath.Join(dir, "full.journal"), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	want, err := Sweep(context.Background(), []string{board}, []*workloads.Benchmark{b},
		SweepOptions{Seed: 42, Workers: 1, Journal: full})
	if err != nil {
		t.Fatal(err)
	}
	part, err := openBareJournal(filepath.Join(dir, "part.journal"), 42, "")
	if err != nil {
		t.Fatal(err)
	}
	defer part.Close()
	for _, cell := range want[board][0].Pairs[:3] {
		if err := part.Record(board, b.Name, 0, cell); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		journal *Journal
		tables  int
	}{{"complete journal", full, 0}, {"partial journal", part, 1}} {
		dev, err := driver.OpenBoard(board)
		if err != nil {
			t.Fatal(err)
		}
		dev.Seed(sweepSeed(42, b.Name))
		tables := newTimingTables()
		got, err := sweepDevice(context.Background(), dev, board, board+"|"+b.Name, b,
			&SweepOptions{Seed: 42, Journal: c.journal}, driver.Harness{Cancelled: cancelled}, nil, tables)
		dev.Release()
		if err != nil {
			t.Fatal(err)
		}
		if len(tables.entries) != c.tables {
			t.Errorf("%s: built %d tables, want %d", c.name, len(tables.entries), c.tables)
		}
		if !reflect.DeepEqual(got, want[board][0]) {
			t.Errorf("%s: resumed job differs from the uninterrupted sweep", c.name)
		}
	}
}

// tableOf returns the timing table a sweep's device last adopted, or nil.
// Nothing outside the sweep holds the table, so the test reads it off the
// device's unexported field.
func tableOf(dev *driver.Device) *gpu.TimingTable {
	f := reflect.ValueOf(dev).Elem().FieldByName("adopted")
	if !f.IsValid() || f.Len() == 0 {
		return nil
	}
	return (*gpu.TimingTable)(f.Index(f.Len() - 1).FieldByName("tab").UnsafePointer())
}

// TestSweepDropsTablesAfterLastJob: a sweep drops a table once every job
// that can ask for its key has asked. In a classic sweep each key has one
// job, so the first job's table is garbage while the second job is still
// measuring. Devices that share a key, as a fleet batch's do, still get
// one table per key.
func TestSweepDropsTablesAfterLastJob(t *testing.T) {
	backprop, stream := workloads.ByName("backprop"), workloads.ByName("streamcluster")
	t.Run("classic", func(t *testing.T) {
		var held *driver.Device
		var watched, freed, checked, sawFree bool
		var mu sync.Mutex // the finalizer runs on its own goroutine
		opts := SweepOptions{
			Seed:    42,
			Workers: 1,
			Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
				dev, err := driver.OpenBoardWithFaults(name, in)
				if held == nil {
					held = dev
				}
				return dev, err
			},
			Sink: SinkFuncs{Row: func(r Row) {
				switch {
				case r.Bench == backprop.Name && held != nil:
					if tab := tableOf(held); tab != nil {
						watched = true
						runtime.SetFinalizer(tab, func(*gpu.TimingTable) {
							mu.Lock()
							freed = true
							mu.Unlock()
						})
					}
					held = nil
				case r.Bench == stream.Name && !checked:
					checked = true
					for i := 0; i < 50 && !sawFree; i++ {
						runtime.GC()
						time.Sleep(time.Millisecond)
						mu.Lock()
						sawFree = freed
						mu.Unlock()
					}
				}
			}},
		}
		if _, err := Sweep(context.Background(), []string{"GTX 680"}, []*workloads.Benchmark{backprop, stream}, opts); err != nil {
			t.Fatal(err)
		}
		if !watched || !checked {
			t.Fatalf("the first job read a timing table: %v; the second job measured a cell: %v", watched, checked)
		}
		if !sawFree {
			t.Error("the first job's timing table was still live while the second job ran")
		}
	})
	t.Run("shared", func(t *testing.T) {
		base := arch.GTX680()
		names := []string{"dev-a", "dev-b", "dev-c", "dev-d"}
		specOf := map[string]*arch.Spec{}
		for i, name := range names {
			specOf[name] = powerJittered(base, name, 1+float64(i)/100)
		}
		var mu sync.Mutex
		var devs []*driver.Device
		opts := SweepOptions{
			Seed:    42,
			Workers: 2,
			Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
				dev, err := driver.OpenSpecWithFaults(specOf[name], in)
				mu.Lock()
				devs = append(devs, dev)
				mu.Unlock()
				return dev, err
			},
			SpecOf: func(name string) *arch.Spec { return specOf[name] },
		}
		if _, err := Sweep(context.Background(), names, []*workloads.Benchmark{backprop, stream}, opts); err != nil {
			t.Fatal(err)
		}
		built := map[*gpu.TimingTable]bool{}
		for _, dev := range devs {
			built[tableOf(dev)] = true
		}
		if len(devs) != 8 || len(built) != 2 {
			t.Errorf("%d devices read %d distinct tables, want 8 devices and one table per benchmark", len(devs), len(built))
		}
	})
}
