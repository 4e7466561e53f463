package main

import (
	"context"
	"fmt"
	"sync"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/fleet"
	"gpuperf/internal/obs"
	"gpuperf/internal/report"
	"gpuperf/internal/workloads"
)

const (
	fleetSize   = 10000
	fleetShards = 2
	// fleetCountSize is the fleet the driver counters are read from: a
	// recorder keeps one track per device, so counts come from a 1% fleet
	// and are scaled to the full one.
	fleetCountSize = 100
)

// fleetBenches is the fleet's benchmark set: one compute- and one
// memory-bound showcase.
func fleetBenches() []*workloads.Benchmark {
	return []*workloads.Benchmark{workloads.ByName("backprop"), workloads.ByName("streamcluster")}
}

// fleetW is a 10,000-device fleet over the four paper boards: every
// device is a distinct jittered spec, so the launch cache never hits.
type fleetW struct {
	o   options
	ref string
}

func newFleet(o options) *fleetW { return &fleetW{o: o} }

func (f *fleetW) options(size int) fleet.Options {
	return fleet.Options{
		Seed:    f.o.seed,
		Size:    size,
		Shards:  fleetShards,
		Workers: nproc(),
		Jitter:  fleet.DefaultJitter(),
		Benches: fleetBenches(),
	}
}

func (f *fleetW) Setup(ctx context.Context) (string, error) {
	defer driver.PushLaunchCachingEnabled(false)()
	opts := f.options(fleetSize)
	opts.Shards, opts.Workers = 1, 1
	rep, err := fleet.Run(ctx, opts)
	if err != nil {
		return "", err
	}
	f.ref = digest(report.FleetSummary(rep))
	return f.ref, nil
}

func (f *fleetW) Op(ctx context.Context) error {
	defer freshCache()()
	rep, err := fleet.Run(ctx, f.options(fleetSize))
	if err != nil {
		return err
	}
	return check("fleet summary", report.FleetSummary(rep), f.ref)
}

// TracedOp rebuilds fleet.Run from its public pieces so every layer
// boundary gets a span; fleet_test.go pins its report byte-identical to
// fleet.Run's.
func (f *fleetW) TracedOp(ctx context.Context, tr *tracer, op int64) error {
	defer freshCache()()
	rep, err := redriveFleet(ctx, tr, op, f.options(fleetSize))
	if err != nil {
		return err
	}
	return check("fleet summary (re-driven)", report.FleetSummary(rep), f.ref)
}

// redriveFleet runs a fault-free, unjournaled fleet campaign the way
// fleet.Run does — devices i ≡ s (mod shards) swept by shard s in
// ascending batches through characterize.SweepStream, each shard folding
// into its own Aggregate, then Merge and Finalize — with spans around
// every call. A nil tracer runs it untraced.
func redriveFleet(ctx context.Context, tr *tracer, op int64, o fleet.Options) (*fleet.Report, error) {
	root := tr.begin(op, 0, "fleet.op")
	defer tr.end(root)
	sp := tr.begin(op, root.id(), "fleet.new")
	fl, err := fleet.New(o.Seed, o.BaseBoards, o.Size, o.Jitter)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	shards := fleet.ClampShards(o.Shards, o.Size)
	workers := o.Workers / shards
	if workers < 1 {
		workers = 1
	}
	res := &fault.Resilience{}
	res.Observe()
	aggs := make([]*fleet.Aggregate, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			aggs[s], errs[s] = redriveShard(ctx, tr, op, root, s, shards, workers, fl, res, o)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	merged := fleet.NewAggregate()
	for _, a := range aggs {
		sp := tr.begin(op, root.id(), "fleet.merge")
		merged.Merge(a)
		tr.end(sp)
	}
	sp = tr.begin(op, root.id(), "fleet.finalize")
	rep := merged.Finalize(o.Seed, o.Size, fl.BaseNames(), o.Jitter)
	tr.end(sp)
	return rep, nil
}

// timedSink wraps a RowSink with leaf aggregates around both folds.
type timedSink struct {
	next        characterize.RowSink
	rows, bench *leaf
}

func (t timedSink) ConsumeRow(r characterize.Row) {
	start := t.rows.start()
	t.next.ConsumeRow(r)
	t.rows.done(start)
}

func (t timedSink) ConsumeBench(b *characterize.BenchResult) {
	start := t.bench.start()
	t.next.ConsumeBench(b)
	t.bench.done(start)
}

// redriveShard sweeps one shard's devices in batches of max(16,
// 4 × workers), at most one batch of generated specs live at a time.
func redriveShard(ctx context.Context, tr *tracer, op int64, root *span, shard, shards, workers int, fl *fleet.Fleet, res *fault.Resilience, o fleet.Options) (*fleet.Aggregate, error) {
	sp := tr.begin(op, root.id(), "fleet.shard")
	defer tr.end(sp)
	devLeaf := tr.leaf(op, sp, "fleet.device")
	agg := fleet.NewAggregate()
	batch := 4 * workers
	if batch < 16 {
		batch = 16
	}
	for start := shard; start < fl.Size(); start += batch * shards {
		devs := make(map[string]fleet.Device, batch)
		var names []string
		for i := start; i < fl.Size() && len(names) < batch; i += shards {
			t := devLeaf.start()
			d := fl.Device(i)
			devLeaf.done(t)
			devs[d.Name] = d
			names = append(names, d.Name)
		}
		sw := tr.begin(op, sp.id(), "characterize.sweep_stream")
		boot := tr.leaf(op, sw, "driver.boot")
		opts := characterize.SweepOptions{
			Seed:    o.Seed,
			Workers: workers,
			Res:     res,
			Sink:    timedSink{next: agg, rows: tr.leaf(op, sw, "fleet.consume_row"), bench: tr.leaf(op, sw, "fleet.consume_bench")},
			Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
				d, ok := devs[name]
				if !ok {
					return nil, fmt.Errorf("unknown device %q", name)
				}
				t := boot.start()
				dev, err := driver.OpenSpecWithFaults(d.Spec, in)
				boot.done(t)
				if err != nil {
					return nil, err
				}
				dev.Meter().Gain = d.MeterGain
				return dev, nil
			},
			SpecOf: func(name string) *arch.Spec {
				if d, ok := devs[name]; ok {
					return d.Spec
				}
				return nil
			},
		}
		err := characterize.SweepStream(ctx, names, o.Benches, opts)
		tr.end(sw)
		if err != nil {
			return nil, err
		}
	}
	return agg, nil
}

func (f *fleetW) Layers(ctx context.Context, tr *tracer, ops []int64, m metrics) error {
	m["driver.boot_us"] = perCall(tr, ops, "driver.boot", nil) / 1e3
	m["fleet.device_us"] = perCall(tr, ops, "fleet.device", nil) / 1e3
	m["fleet.consume_row_ns"] = perCall(tr, ops, "fleet.consume_row", nil)
	m["fleet.merge_us"] = perCall(tr, ops, "fleet.merge", nil) / 1e3
	m["fleet.finalize_ms"] = perCall(tr, ops, "fleet.finalize", nil) / 1e6
	m["characterize.cell_us"] = perCall(tr, ops, "characterize.sweep_stream", func(op int64) float64 {
		_, layers := tr.opLedger(op)
		if rows := layers["fleet.consume_row"]; rows != nil {
			return float64(rows.Calls)
		}
		return 0
	}) / 1e3

	// Driver and meter counters from a 1% fleet with a recorder attached.
	defer freshCache()()
	rec := obs.New()
	opts := f.options(fleetCountSize)
	opts.Obs = rec
	if _, err := fleet.Run(ctx, opts); err != nil {
		return err
	}
	setDriverMetrics(m, totals(rec.Metrics(), driverCounters...), fleetSize/fleetCountSize)
	fl, err := fleet.New(f.o.seed, nil, 1, fleet.DefaultJitter())
	if err != nil {
		return err
	}
	return apparatusProbe(fl.Device(0).Spec, fleetBenches(), f.o.seed, m)
}

func (f *fleetW) Lanes() int { return fleetShards }

func (f *fleetW) Remainder() string {
	return "shard goroutine start-up and the gap between shards finishing (the op waits for the slower shard)"
}
