package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"gpuperf/internal/fleet"
	"gpuperf/internal/report"
)

// The traced fleet op rebuilds fleet.Run from public pieces; its report
// must be byte-identical to fleet.Run's, traced or not.
func TestRedriveFleetMatchesRun(t *testing.T) {
	ctx := context.Background()
	opts := fleet.Options{Seed: 7, Size: 48, Shards: 2, Workers: 2, Jitter: fleet.DefaultJitter(), Benches: fleetBenches()}
	want, err := fleet.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := redriveFleet(ctx, nil, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	op := tr.newOp()
	traced, err := redriveFleet(ctx, tr, op, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*fleet.Report{"untraced": untraced, "traced": traced} {
		if report.FleetSummary(got) != report.FleetSummary(want) {
			t.Errorf("%s re-drive: FleetSummary differs from fleet.Run's", name)
		}
	}
	_, layers := tr.opLedger(op)
	if rows := layers["fleet.consume_row"]; rows == nil || rows.Calls != want.Cells {
		t.Errorf("consume_row leaf counted %v rows, want %d", rows, want.Cells)
	}
	if boots := layers["driver.boot"]; boots == nil || boots.Calls != int64(opts.Size*len(opts.Benches)) {
		t.Errorf("driver.boot leaf counted %v boots, want %d", boots, opts.Size*len(opts.Benches))
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(options{workload: w.Name}); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	got := covered([][2]int64{{10, 20}, {0, 5}, {15, 30}, {40, 41}})
	if got != 5+20+1 {
		t.Fatalf("covered = %d, want 26", got)
	}
}

// A span's self time excludes the union of its children and its leaves;
// wait spans and their leaves are flagged concurrent.
func TestOpLedgerSelfTime(t *testing.T) {
	tr := newTracer()
	op := tr.newOp()
	add := func(parent int64, name string, start, end int64) *span {
		s := &span{ID: tr.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: start, End: end}
		tr.spans = append(tr.spans, s)
		return s
	}
	root := add(0, "op", 0, 100)
	add(root.ID, "a", 0, 40)
	add(root.ID, "a", 30, 60)
	wait := add(root.ID, "x.wait", 60, 90)
	l := tr.leaf(op, wait, "poll")
	l.n.Add(3)
	l.ns.Add(12)
	_, layers := tr.opLedger(op)
	want := map[string]layerTime{
		"op":     {SelfNS: 10, Calls: 1},
		"a":      {SelfNS: 70, Calls: 2},
		"x.wait": {SelfNS: 18, Calls: 1, Concurrent: true},
		"poll":   {SelfNS: 12, Calls: 3, Concurrent: true},
	}
	for name, w := range want {
		if got := layers[name]; got == nil || *got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 0.9); got != 3.7 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
}
