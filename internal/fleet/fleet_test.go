package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

func testBenches(t testing.TB, names ...string) []*workloads.Benchmark {
	t.Helper()
	out := make([]*workloads.Benchmark, 0, len(names))
	for _, n := range names {
		b := workloads.ByName(n)
		if b == nil {
			t.Fatalf("benchmark %q not registered", n)
		}
		out = append(out, b)
	}
	return out
}

func reportJSON(t testing.TB, r *Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

func TestParseJitterProfile(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr string
	}{
		{in: "", want: DefaultJitter().String()},
		{in: "default", want: DefaultJitter().String()},
		{in: "none", want: JitterProfile{}.String()},
		{in: "corevolt:0.1,leak:0.2", want: "corevolt:0.1,memvolt:0,vexp:0,leak:0.2,meter:0"},
		{in: "bogus:0.1", wantErr: "unknown"},
		{in: "tigth", wantErr: `unknown preset (have default, loose, none, tight)`},
		{in: "corevolt:0.1,corevolt:0.2", wantErr: "duplicate"},
		{in: "corevolt:nope", wantErr: "corevolt"},
		{in: "corevolt:1.5", wantErr: "[0, 1]"},
		{in: "corevolt:-0.1", wantErr: "[0, 1]"},
	}
	for _, c := range cases {
		p, err := ParseJitterProfile(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseJitterProfile(%q) err = %v, want containing %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseJitterProfile(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.want {
			t.Errorf("ParseJitterProfile(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// The canonical string must round-trip.
		rt, err := ParseJitterProfile(p.String())
		if err != nil || rt != p {
			t.Errorf("round-trip %q -> %q failed: %v", c.in, p.String(), err)
		}
	}
}

func TestFleetDeviceDeterminism(t *testing.T) {
	jit := DefaultJitter()
	a, err := New(42, nil, 64, jit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(42, nil, 64, jit)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		da, db := a.Device(i), b.Device(i)
		if da.Name != db.Name || da.MeterGain != db.MeterGain || *da.Spec != *db.Spec {
			t.Fatalf("device %d differs between identical fleets", i)
		}
		idx, ok := DeviceIndex(da.Name)
		if !ok || idx != i {
			t.Fatalf("DeviceIndex(%q) = %d, %v; want %d, true", da.Name, idx, ok, i)
		}
		base := a.bases[i%len(a.bases)]
		if da.Spec.Name != da.Name {
			t.Fatalf("device %d spec name %q != device name %q", i, da.Spec.Name, da.Name)
		}
		// Jitter bounds: voltage endpoints within ±CoreVolt of base.
		r := da.Spec.CoreVoltHigh / base.CoreVoltHigh
		if math.Abs(r-1) > jit.CoreVolt+1e-9 {
			t.Fatalf("device %d core voltage jitter %.4f exceeds ±%.2f", i, r-1, jit.CoreVolt)
		}
		if math.Abs(da.MeterGain-1) > jit.Meter+1e-9 {
			t.Fatalf("device %d meter gain %.4f exceeds ±%.2f", i, da.MeterGain, jit.Meter)
		}
		// Frequencies are never jittered: the pair grid is the base's.
		if da.Spec.CoreFreqsMHz != base.CoreFreqsMHz || da.Spec.MemFreqsMHz != base.MemFreqsMHz {
			t.Fatalf("device %d clock grid differs from base", i)
		}
		if len(clock.ValidPairs(da.Spec)) != len(clock.ValidPairs(base)) {
			t.Fatalf("device %d pair grid differs from base", i)
		}
		if err := da.Spec.Validate(); err != nil {
			t.Fatalf("device %d spec invalid: %v", i, err)
		}
	}
	// Different seeds must diverge.
	c, err := New(43, nil, 64, jit)
	if err != nil {
		t.Fatal(err)
	}
	if a.Device(0).MeterGain == c.Device(0).MeterGain {
		t.Fatal("seed 42 and 43 generated identical device 0 gain")
	}
}

// TestFleetDeviceAllocs caps what generating one fleet member allocates:
// the spec copy, the device name and the tag its seed hashes. The jitter
// generator is a pooled stream, not a fresh 4.9 KB source per device.
func TestFleetDeviceAllocs(t *testing.T) {
	const maxAllocs = 3
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a random share of what it is given, so the stream is not always reused")
	}
	fl, err := New(42, nil, 1000, DefaultJitter())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		_ = fl.Device(i % fl.Size())
		i++
	})
	if n > maxAllocs {
		t.Errorf("Fleet.Device allocates %v objects, want ≤ %d", n, maxAllocs)
	}
}

// TestJitterKeepsTimingHalf: jitter moves only the power half, so every
// device, even under the loose preset, keeps its base board's timing
// half and can be served its base board's timing tables.
func TestJitterKeepsTimingHalf(t *testing.T) {
	jitter, err := ParseJitterProfile("loose")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := New(42, nil, 100, jitter)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fl.Size(); i++ {
		d := fl.Device(i)
		base := arch.BoardByName(fl.BaseNames()[i%len(fl.BaseNames())])
		if d.Spec.Timing != base.Timing {
			t.Fatalf("device %d (%s) changed %s's timing half", i, d.Name, base.Name)
		}
		if *d.Spec == *base {
			t.Fatalf("device %d (%s) is not jittered", i, d.Name)
		}
	}
}

func TestZeroJitterMatchesBase(t *testing.T) {
	fl, err := New(42, []string{"GTX 680"}, 4, JitterProfile{})
	if err != nil {
		t.Fatal(err)
	}
	base := arch.BoardByName("GTX 680")
	for i := 0; i < 4; i++ {
		d := fl.Device(i)
		want := *base
		want.Name = d.Name
		if want.VoltExponent == 0 {
			want.VoltExponent = 1 // Device normalizes the linear-curve sentinel
		}
		if *d.Spec != want {
			t.Fatalf("zero-jitter device %d spec differs from base", i)
		}
		if d.MeterGain != 1 {
			t.Fatalf("zero-jitter device %d gain = %v, want 1", i, d.MeterGain)
		}
	}
}

// rowsForTesting builds a synthetic row stream: enough shape (multiple
// benches, pairs, devices, a quarantined cell) to exercise every fold.
func rowsForTesting(t *testing.T, n int) ([]characterize.Row, []*characterize.BenchResult) {
	t.Helper()
	fl, err := New(7, []string{"GTX 680", "GTX 480"}, n, DefaultJitter())
	if err != nil {
		t.Fatal(err)
	}
	var rows []characterize.Row
	var benches []*characterize.BenchResult
	for i := 0; i < n; i++ {
		d := fl.Device(i)
		pairs := clock.ValidPairs(d.Spec)
		for _, bench := range []string{"backprop", "hotspot"} {
			br := &characterize.BenchResult{Board: d.Name, Benchmark: bench}
			for pi, p := range pairs {
				pr := characterize.PairResult{
					Pair:          p,
					TimePerIter:   0.01 + float64((i*31+pi*7)%100)/1000,
					AvgWatts:      80 + float64((i*17+pi*13)%500)/10,
					EnergyPerIter: 1 + float64((i*5+pi*3)%200)/100,
				}
				if i == 1 && pi == 0 {
					pr = characterize.PairResult{Pair: p, Quarantined: true}
				}
				br.Pairs = append(br.Pairs, pr)
				rows = append(rows, characterize.Row{Board: d.Name, Bench: bench, Result: pr})
			}
			benches = append(benches, br)
		}
	}
	return rows, benches
}

func TestAggregateMergeAssociative(t *testing.T) {
	rows, benches := rowsForTesting(t, 9)
	fold := func(groups ...[]int) *Report {
		// Each group folds its device-index share into its own Aggregate;
		// the groups merge in the order given.
		parts := make([]*Aggregate, len(groups))
		for gi, g := range groups {
			parts[gi] = NewAggregate()
			own := make(map[int]bool)
			for _, i := range g {
				own[i] = true
			}
			for _, r := range rows {
				if idx, _ := DeviceIndex(r.Board); own[idx] {
					parts[gi].ConsumeRow(r)
				}
			}
			for _, b := range benches {
				if idx, _ := DeviceIndex(b.Board); own[idx] {
					parts[gi].ConsumeBench(b)
				}
			}
		}
		total := NewAggregate()
		for _, p := range parts {
			total.Merge(p)
		}
		return total.Finalize(7, 9, []string{"GTX 680", "GTX 480"}, DefaultJitter())
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	want := reportJSON(t, fold(all))
	groupings := [][][]int{
		{{0, 2, 4, 6, 8}, {1, 3, 5, 7}},
		{{8, 7, 6}, {5, 4, 3}, {2, 1, 0}},
		{{1}, {0}, {3}, {2}, {5}, {4}, {7}, {6}, {8}},
	}
	for gi, g := range groupings {
		if got := reportJSON(t, fold(g...)); !bytes.Equal(got, want) {
			t.Errorf("grouping %d produced a different report", gi)
		}
	}
}

func fleetOpts(size, shards int) Options {
	return Options{
		Seed:       42,
		Size:       size,
		Shards:     shards,
		Workers:    4,
		Jitter:     DefaultJitter(),
		BaseBoards: []string{"GTX 680", "GTX 480"},
	}
}

// TestShardCountByteIdentity pins the tentpole property: the fleet
// report at a fixed seed is byte-identical for shard counts 1, 2 and 8.
// CI runs this under -race.
func TestShardCountByteIdentity(t *testing.T) {
	benches := testBenches(t, "backprop")
	var want []byte
	for _, shards := range []int{1, 2, 8} {
		opts := fleetOpts(12, shards)
		opts.Benches = benches
		rep, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := reportJSON(t, rep)
		if want == nil {
			want = got
			if rep.Cells == 0 || rep.Devices != 12 {
				t.Fatalf("degenerate report: cells=%d devices=%d", rep.Cells, rep.Devices)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shards=%d report differs from shards=1", shards)
		}
	}
}

// TestResumeAcrossShardCounts runs a checkpointed campaign at 4 shards,
// then resumes the finished campaign at 2 shards: pooling leaves every
// shard file in place, every cell replays from the merged journals, the
// leftover shard files are retired after that, and the report stays
// byte-identical.
func TestResumeAcrossShardCounts(t *testing.T) {
	benches := testBenches(t, "backprop")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")

	first := fleetOpts(8, 4)
	first.Benches = benches
	first.Checkpoint = ckpt
	rep1, err := Run(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	// Pooling renames nothing: a process that dies before the pooled
	// cells are recorded in the new journals loses none of them.
	if _, err := mergeShardJournals(ckpt, 2, first.Cohort(), t.Logf); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if _, err := os.Stat(ShardPath(ckpt, s)); err != nil {
			t.Errorf("shard %d journal moved by pooling: %v", s, err)
		}
	}

	var replayed int64
	second := fleetOpts(8, 2)
	second.Benches = benches
	second.Checkpoint = ckpt
	second.Tracker = NewTracker(2)
	rep2, err := Run(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range second.Tracker.Snapshot() {
		replayed += s.Replayed
	}
	if replayed != rep1.Cells {
		t.Errorf("resume replayed %d cells, want all %d", replayed, rep1.Cells)
	}
	if !bytes.Equal(reportJSON(t, rep1), reportJSON(t, rep2)) {
		t.Error("resumed report differs from original")
	}
	// Old shards 2 and 3 are retired once their cells are recorded.
	for _, s := range []int{2, 3} {
		if _, err := os.Stat(ShardPath(ckpt, s)); !os.IsNotExist(err) {
			t.Errorf("shard %d journal still present after resharded resume", s)
		}
		if _, err := os.Stat(ShardPath(ckpt, s) + ".merged"); err != nil {
			t.Errorf("shard %d journal not absorbed: %v", s, err)
		}
	}
}

func TestMergeShardJournalsRobustness(t *testing.T) {
	benches := testBenches(t, "backprop")
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")

	first := fleetOpts(6, 3)
	first.Benches = benches
	first.Checkpoint = ckpt
	rep1, err := Run(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}

	// Tear shard 0 (truncate mid-line), duplicate shard 1's cells into a
	// surplus shard file, drop a fully corrupt shard file alongside, and
	// list a shard file that is gone by the time the merge reads it (a
	// dangling symlink, which the scan still lists).
	s0, err := os.ReadFile(ShardPath(ckpt, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ShardPath(ckpt, 0), s0[:len(s0)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s1, err := os.ReadFile(ShardPath(ckpt, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ShardPath(ckpt, 7), s1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ShardPath(ckpt, 9), []byte("not a journal\nat all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "gone"), ShardPath(ckpt, 5)); err != nil {
		t.Fatal(err)
	}

	second := fleetOpts(6, 3)
	second.Benches = benches
	second.Checkpoint = ckpt
	second.Warn = t.Logf
	rep2, err := Run(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, rep1), reportJSON(t, rep2)) {
		t.Error("report differs after torn/duplicated/corrupt/vanished shard files")
	}
	if _, err := os.Stat(ShardPath(ckpt, 9) + ".quarantined"); err != nil {
		t.Errorf("corrupt shard file not quarantined: %v", err)
	}
	if _, err := os.Stat(ShardPath(ckpt, 7) + ".merged"); err != nil {
		t.Errorf("surplus shard file not absorbed: %v", err)
	}
}

// TestMergeShardJournalsForeignCohort pins the hard-error path: a shard
// file provably bound to a different campaign must fail the merge, not
// be silently absorbed.
func TestMergeShardJournalsForeignCohort(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "fleet.ckpt")
	cohortA := validity.Cohort{Seed: 1, Boards: []string{"GTX 680"}, Profile: "a", CodeVersion: "v1"}
	cohortB := validity.Cohort{Seed: 2, Boards: []string{"GTX 680"}, Profile: "b", CodeVersion: "v1"}

	j, err := characterize.OpenJournalCohort(ShardPath(ckpt, 0), characterize.JournalConfig{Cohort: cohortA})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("GTX 680", "backprop", 0, characterize.PairResult{Pair: clock.DefaultPair()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := mergeShardJournals(ckpt, 1, cohortB, t.Logf); err == nil {
		t.Fatal("merging a foreign-cohort shard journal did not fail")
	}
	pool, err := mergeShardJournals(ckpt, 1, cohortA, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.cells) != 1 {
		t.Fatalf("pooled %d cells, want 1", len(pool.cells))
	}
}

// FuzzMergeShardJournals feeds arbitrary bytes as shard journal files:
// the merge must never panic and a corrupt shard must quarantine, not
// poison the pool.
func FuzzMergeShardJournals(f *testing.F) {
	f.Add([]byte("gpuperf-checkpoint-v2 cohort=deadbeef\n"), []byte(`{"board":"GTX 680#0000"`))
	f.Add([]byte(""), []byte("\x00\xff garbage"))
	f.Add([]byte("{\"board\":\"a\",\"bench\":\"b\"}\n"), []byte("gpuperf-checkpoint"))
	cohort := validity.Cohort{Seed: 42, Boards: []string{"GTX 680"}, Profile: "fuzz", CodeVersion: "v1"}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dir := t.TempDir()
		ckpt := filepath.Join(dir, "fleet.ckpt")
		if err := os.WriteFile(ShardPath(ckpt, 0), a, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ShardPath(ckpt, 1), b, 0o644); err != nil {
			t.Fatal(err)
		}
		pool, err := mergeShardJournals(ckpt, 2, cohort, func(string, ...any) {})
		if err != nil {
			// Hard errors (e.g. an accidental cohort mismatch) are legal;
			// panics are not.
			return
		}
		seen := make(map[string]bool)
		for _, c := range pool.cells {
			key := c.Board + "|" + c.Bench + "|" + string(rune(c.Rep)) + "|" + c.Result.Pair.String()
			if seen[key] {
				t.Fatalf("duplicate cell survived the merge: %s", key)
			}
			seen[key] = true
		}
	})
}

func TestTrackerTotals(t *testing.T) {
	tr := NewTracker(3)
	tr.shards[0].cellsDone.Store(10)
	tr.shards[1].cellsDone.Store(4)
	tr.shards[2].cellsDone.Store(7)
	tr.shards[0].devicesPlanned.Store(5)
	tr.shards[1].rowsFolded.Store(4)
	snap := tr.Snapshot()
	if len(snap) != 3 || snap[2].CellsDone != 7 || snap[1].Shard != 1 {
		t.Fatalf("Snapshot() = %+v", snap)
	}
	total, lag := Sum(snap)
	if total.DevicesPlanned != 5 || total.DevicesDone != 0 || total.CellsDone != 21 || total.RowsFolded != 4 || lag != 6 {
		t.Fatalf("Sum() = %+v, lag %d", total, lag)
	}
	if total, lag := Sum(nil); total != (ShardProgress{}) || lag != 0 {
		t.Fatalf("Sum(nil) = %+v, lag %d", total, lag)
	}
}

// heapPeak is what pollHeap saw: the peak of the heap's object bytes,
// and how many samples it took before stop closed.
type heapPeak struct {
	bytes   uint64
	samples int
}

// pollHeap samples the heap's live-plus-unswept object bytes through
// runtime/metrics every millisecond until stop closes, then once more,
// and reports the peak. runtime/metrics reads do not stop the world.
func pollHeap(stop <-chan struct{}, out chan<- heapPeak) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var p heapPeak
	sample := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > p.bytes {
			p.bytes = v
		}
	}
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		sample()
		p.samples++
		select {
		case <-stop:
			sample() // the heap as the run left it
			out <- p
			return
		case <-tick.C:
		}
	}
}

// TestFleetSmoke is the CI fleet-smoke memory gate: a 1,000-device
// campaign must complete with flat memory (the streaming pipeline never
// materializes the fleet's rows, and a sweep call holds only its own
// timing tables). Gated behind FLEET_SMOKE=1. The gate reads only if
// the sampler saw the run: at least minSamples samples must fall inside
// it, and a runner that finishes sooner needs a larger smoke fleet, not
// a lower floor.
func TestFleetSmoke(t *testing.T) {
	if os.Getenv("FLEET_SMOKE") == "" {
		t.Skip("set FLEET_SMOKE=1 to run the 1,000-device smoke")
	}
	benches := testBenches(t, "backprop")
	opts := fleetOpts(1000, 8)
	opts.Workers = 16
	opts.Benches = benches
	opts.Obs = nil
	stop := make(chan struct{})
	peak := make(chan heapPeak, 1)
	go pollHeap(stop, peak)
	rep, err := Run(context.Background(), opts)
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != 1000 || rep.Cells == 0 {
		t.Fatalf("degenerate smoke report: devices=%d cells=%d", rep.Devices, rep.Cells)
	}
	const (
		ceiling    = 32 << 20
		minSamples = 5
	)
	p := <-peak
	if p.samples < minSamples {
		t.Fatalf("only %d heap samples fell inside the run, want at least %d", p.samples, minSamples)
	}
	if p.bytes > ceiling {
		t.Fatalf("peak heap %.1f MiB exceeds %d MiB ceiling", float64(p.bytes)/(1<<20), uint64(ceiling)>>20)
	}
	t.Logf("peak heap %.1f MiB over %d samples (ceiling %d MiB), cells %d",
		float64(p.bytes)/(1<<20), p.samples, uint64(ceiling)>>20, rep.Cells)
}
