package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("zz_cells_total", "cells measured", L("board", "GTX 480"))
	c.Add(3)
	c.Inc()
	reg.Counter("zz_cells_total", "cells measured", L("board", "GTX 680")).Inc()
	reg.Gauge("aa_workers", "pool width").Set(4)
	h := reg.Histogram("mid_r2", "adjusted R2", []float64{0.5, 0.9})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(0.95)

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_workers pool width
# TYPE aa_workers gauge
aa_workers 4
# HELP mid_r2 adjusted R2
# TYPE mid_r2 histogram
mid_r2_bucket{le="0.5"} 1
mid_r2_bucket{le="0.9"} 2
mid_r2_bucket{le="+Inf"} 3
mid_r2_sum 1.95
mid_r2_count 3
# HELP zz_cells_total cells measured
# TYPE zz_cells_total counter
zz_cells_total{board="GTX 480"} 4
zz_cells_total{board="GTX 680"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("golden exposition fails its own validator: %v", err)
	}
}

func TestExpositionIsOrderIndependent(t *testing.T) {
	render := func(order []string) string {
		reg := NewRegistry()
		vec := reg.CounterVec("retries_total", "retries", "point")
		for _, p := range order {
			vec.With(p).Inc()
		}
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := render([]string{"boot.fail", "launch.hang", "meter.drop"})
	b := render([]string{"meter.drop", "boot.fail", "launch.hang"})
	if a != b {
		t.Errorf("exposition depends on registration order:\n%s\nvs\n%s", a, b)
	}
}

func TestCounterConcurrentCommutes(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total", "n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("concurrent increments lost: got %d, want 8000", c.Value())
	}
	if total, ok := reg.Total("n_total"); !ok || total != 8000 {
		t.Errorf("Total = %d, %v; want 8000, true", total, ok)
	}
}

func TestLayoutSortsAndOffsets(t *testing.T) {
	rec := New()
	// Created out of name order; layout must sort and lay end to end.
	b := rec.Track("b/second")
	a := rec.Track("a/first")
	a.Slice("k1", 0.002)
	a.Slice("k2", 0.001)
	b.Slice("k3", 0.005)

	layout := rec.Layout()
	if len(layout) != 2 {
		t.Fatalf("got %d tracks, want 2", len(layout))
	}
	if layout[0].Name != "a/first" || layout[1].Name != "b/second" {
		t.Errorf("layout order: %q, %q", layout[0].Name, layout[1].Name)
	}
	if layout[0].OffsetUS != 0 {
		t.Errorf("first track offset %d, want 0", layout[0].OffsetUS)
	}
	// a/first spans 3000 µs, so b/second starts there.
	if layout[1].OffsetUS != 3000 {
		t.Errorf("second track offset %d, want 3000", layout[1].OffsetUS)
	}
}

func TestSpanCoversChildSlices(t *testing.T) {
	rec := New()
	tr := rec.Track("t")
	tr.Advance(0.001)
	span := tr.Begin("parent", Arg{Key: "k", Value: "v"})
	tr.Slice("child1", 0.004)
	tr.Slice("child2", 0.006)
	span.End()

	ev := rec.Layout()[0].Events
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	parent := ev[2] // End records after the children
	if parent.Name != "parent" || parent.Start != 1000 || parent.Dur != 10000 {
		t.Errorf("parent = %q start=%d dur=%d; want parent/1000/10000", parent.Name, parent.Start, parent.Dur)
	}
	if len(parent.Args) != 1 || parent.Args[0].Value != "v" {
		t.Errorf("parent args not preserved: %+v", parent.Args)
	}
	if ev[0].Start != 1000 || ev[1].Start != 5000 {
		t.Errorf("children at %d, %d; want 1000, 5000", ev[0].Start, ev[1].Start)
	}
}

// TestTrackFreeTracksKeepCursors: the same instrumentation moves a
// track-free recorder's track exactly as it moves a recording one's, one
// rounded slice at a time, and records nothing. A second lookup by the
// same name hands out a fresh track, and the recorder lays out none.
func TestTrackFreeTracksKeepCursors(t *testing.T) {
	drive := func(tr *Track) int64 {
		tr.Advance(0.0015)
		span := tr.Begin("parent", Arg{Key: "k", Value: "v"})
		tr.Slice("k1", 0.0000014)
		tr.Slice("k2", 0.0021)
		tr.SliceAt("tile", 0, 1)
		tr.Instant("retry")
		tr.Sample("watts", 112.5)
		tr.SampleAt("watts", 10, 110)
		span.End()
		return tr.Now()
	}
	want := drive(New().Track("t"))
	if want != 3601 {
		t.Fatalf("recording track cursor %d, want 3601", want)
	}
	rec := NewTrackFree()
	tr := rec.Track("t")
	if tr.Recording() {
		t.Error("track keeps events")
	}
	if got := drive(tr); got != want {
		t.Errorf("cursor %d, want %d", got, want)
	}
	if again := rec.Track("t"); again == tr || again.Now() != 0 {
		t.Errorf("second lookup returned the same track = %v at cursor %d, want a fresh one", again == tr, again.Now())
	}
	var ev strings.Builder
	if err := rec.WriteEvents(&ev); err != nil || ev.Len() != 0 {
		t.Errorf("wrote events %q (%v)", ev.String(), err)
	}
	if n := len(rec.Layout()); n != 0 {
		t.Errorf("layout holds %d tracks, want 0", n)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Error("nil recorder claims enabled")
	}
	tr := rec.Track("x")
	if tr != nil {
		t.Error("nil recorder returned a non-nil track")
	}
	// None of these may panic.
	tr.Slice("a", 1)
	tr.SliceAt("a", 0, 1)
	tr.Instant("b")
	tr.Sample("c", 1)
	tr.Advance(1)
	span := tr.Begin("d")
	span.End()
	if tr.Now() != 0 || tr.Name() != "" {
		t.Error("nil track has state")
	}

	reg := rec.Metrics()
	reg.Counter("c", "h").Inc()
	reg.Gauge("g", "h").Set(1)
	reg.Histogram("h", "h", []float64{1}).Observe(0.5)
	reg.CounterVec("v", "h", "k").With("x").Inc()
	if _, ok := reg.Total("c"); ok {
		t.Error("nil registry has a family")
	}
	if err := rec.WriteMetrics(nil); err != nil {
		t.Error(err)
	}
	if err := rec.WriteEvents(nil); err != nil {
		t.Error(err)
	}
	if rec.Layout() != nil {
		t.Error("nil recorder has a layout")
	}
	if tr.Recording() {
		t.Error("nil track claims to record")
	}
	stop := rec.StartProgressCtx(context.Background(), nil, time.Second)
	stop()
}

func TestWriteEventsJSONL(t *testing.T) {
	rec := New()
	tr := rec.Track("sweep/x")
	tr.Slice("run", 0.001, Arg{Key: "pair", Value: "(H-H)"})
	tr.Instant("retry")
	tr.Sample("watts", 112.5, NumArg{Key: "interpolated", Value: 1})

	var b strings.Builder
	if err := rec.WriteEvents(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"track":"sweep/x","kind":"slice","name":"run","ts_us":0,"dur_us":1000,"pair":"(H-H)"}
{"track":"sweep/x","kind":"instant","name":"retry","ts_us":1000}
{"track":"sweep/x","kind":"counter","name":"watts","ts_us":1000,"value":112.5,"interpolated":1}
`
	if b.String() != want {
		t.Errorf("JSONL mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"garbage line":   "not a metric line at all!\n",
		"untyped sample": "orphan_total 3\n",
		"bad type":       "# TYPE x summary\nx 1\n",
	}
	for name, text := range cases {
		if err := ValidateExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: validator accepted %q", name, text)
		}
	}
	ok := "# HELP a_total h\n# TYPE a_total counter\na_total{x=\"y\"} 3\n"
	if err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("validator rejected a well-formed exposition: %v", err)
	}
}

func TestValidateTraceJSONRejects(t *testing.T) {
	cases := map[string]string{
		"not json":  "nope",
		"empty":     "[]",
		"no ph":     `[{"name":"x","ts":1}]`,
		"no name":   `[{"ph":"X","ts":1}]`,
		"no ts":     `[{"ph":"X","name":"x"}]`,
		"not array": `{"ph":"X"}`,
	}
	for name, text := range cases {
		if err := ValidateTraceJSON([]byte(text)); err == nil {
			t.Errorf("%s: validator accepted %q", name, text)
		}
	}
	ok := `[{"ph":"M","name":"process_name"},{"ph":"X","name":"k","ts":0,"dur":5}]`
	if err := ValidateTraceJSON([]byte(ok)); err != nil {
		t.Errorf("validator rejected a well-formed trace: %v", err)
	}
	phases, err := TracePhases([]byte(ok))
	if err != nil {
		t.Fatal(err)
	}
	if phases["M"] != 1 || phases["X"] != 1 {
		t.Errorf("TracePhases = %v", phases)
	}
}

func TestFormatMicro(t *testing.T) {
	cases := []struct {
		mic  int64
		want string
	}{
		{0, "0"},
		{1_950_000, "1.95"},
		{1_000_000, "1"},
		{500, "0.0005"},
		{-2_500_000, "-2.5"},
		{math.MinInt64, "-9223372036854.775808"},
	}
	for _, c := range cases {
		if got := string(appendMicro([]byte("x="), c.mic)); got != "x="+c.want {
			t.Errorf("appendMicro(%d) = %q, want %q", c.mic, got, "x="+c.want)
		}
	}
}

func TestProgressLines(t *testing.T) {
	rec := New()
	rec.Metrics().Counter("characterize_cells_total", "cells").Add(7)
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	stop := rec.StartProgressCtx(context.Background(), w, 10*time.Millisecond, "characterize_cells_total", "no_such_family")
	time.Sleep(35 * time.Millisecond)
	stop()
	mu.Lock()
	out := b.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: cells=7") {
		t.Errorf("no periodic line in %q", out)
	}
	if !strings.Contains(out, "progress(final):") {
		t.Errorf("no final line in %q", out)
	}
	if strings.Contains(out, "no_such_family") {
		t.Errorf("unknown family leaked into %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
