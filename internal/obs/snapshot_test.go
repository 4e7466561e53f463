package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestScrapeDuringRegistrationIsSafe is the scrape-safety contract: the
// exposition must be writable concurrently with handle registration and
// counter updates — a /metrics scrape mid-campaign. Run under -race this
// catches any unguarded families/series access.
func TestScrapeDuringRegistrationIsSafe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scrape_cells_total", "cells", L("board", "seed")).Inc()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writers: keep registering fresh series across several families and
	// bumping them, like sweep workers observing new boards.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lbl := L("board", fmt.Sprintf("w%d-%d", w, i%37))
				reg.Counter("scrape_cells_total", "cells", lbl).Inc()
				reg.Gauge("scrape_pool_workers", "pool", lbl).Set(int64(i))
				reg.FloatGauge("scrape_power_watts", "power", lbl).Set(float64(i) * 0.25)
				reg.Histogram("scrape_watts_hist", "dist", []float64{1, 10, 100}, lbl).Observe(float64(i % 200))
				reg.CounterVec("scrape_retries_total", "retries", "point", lbl).With("launch.hang").Inc()
				if _, ok := reg.Total("scrape_cells_total"); !ok {
					t.Error("registered family vanished")
					return
				}
			}
		}(w)
	}

	// Scrapers: render the exposition and take snapshots while the writers
	// run. Every render must be well-formed (validated below).
	var lastText string
	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		lastText = b.String()
		if _, ok := reg.Snapshot().Total("scrape_cells_total"); !ok {
			t.Fatal("snapshot lost a registered family")
		}
	}
	close(stop)
	wg.Wait()

	if err := ValidateExposition(strings.NewReader(lastText)); err != nil {
		t.Fatalf("mid-campaign exposition invalid: %v", err)
	}
}

// TestSnapshotIsImmutable pins that a snapshot taken before later updates
// keeps rendering the old values.
func TestSnapshotIsImmutable(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("snap_total", "help")
	c.Add(3)
	h := reg.Histogram("snap_hist", "help", []float64{1, 2})
	h.Observe(0.5)
	reg.Gauge("snap_boards", "help", L("board", "GTX 680")).Set(680)
	snap := reg.Snapshot()
	c.Add(39)
	h.Observe(1.5)

	if v, _ := snap.Total("snap_total"); v != 3 {
		t.Fatalf("snapshot total moved: got %d, want 3", v)
	}
	var b strings.Builder
	if err := snap.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "snap_total 3\n") {
		t.Fatalf("snapshot rendered live values:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `snap_hist_bucket{le="+Inf"} 1`) {
		t.Fatalf("snapshot histogram moved:\n%s", b.String())
	}

	// Registrations after the snapshot: a series that sorts first in an
	// existing family, and a family that sorts first. The old snapshot
	// shares the order the registry kept, so a re-sort in place, at
	// registration or by the next Snapshot, would move its bytes.
	before := b.String()
	reg.Gauge("snap_boards", "help", L("board", "GTX 480")).Set(480)
	reg.Gauge("aaa_first", "help").Set(7)
	next := render(t, reg)
	if want := refRender(t, reg); next != want {
		t.Fatalf("next snapshot out of order:\n--- got ---\n%s--- want ---\n%s", next, want)
	}
	if !strings.HasPrefix(next, "# HELP aaa_first help\n# TYPE aaa_first gauge\naaa_first 7\n") ||
		!strings.Contains(next, "snap_boards{board=\"GTX 480\"} 480\nsnap_boards{board=\"GTX 680\"} 680\n") {
		t.Fatalf("next snapshot misses the new series:\n%s", next)
	}
	b.Reset()
	if err := snap.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != before {
		t.Fatalf("later registrations moved an old snapshot:\n--- before ---\n%s--- after ---\n%s", before, b.String())
	}
	if _, ok := snap.Total("aaa_first"); ok {
		t.Fatal("old snapshot holds a family registered after it")
	}
}

// TestScrapeAllocs: a scrape of a registry whose series are all
// registered — Snapshot plus WriteText — costs a fixed handful of
// allocations, whatever the series count: the value slice, the snapshot
// and the render buffer.
func TestScrapeAllocs(t *testing.T) {
	reg := scrapeRegistry()
	allocs := testing.AllocsPerRun(5, func() {
		if err := reg.Snapshot().WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a scrape of 16,064 series makes %.0f allocations, want at most 4", allocs)
	}
}

// TestExpositionLabelEscaping covers the Prometheus text-format escapes:
// backslash, double quote and newline in label values.
func TestExpositionLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "help", L("path", `C:\temp`)).Inc()
	reg.Counter("esc_total", "help", L("path", `say "hi"`)).Inc()
	reg.Counter("esc_total", "help", L("path", "line1\nline2")).Inc()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		`esc_total{path="C:\\temp"} 1`,
		`esc_total{path="say \"hi\""} 1`,
		`esc_total{path="line1\nline2"} 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
	if strings.Count(got, "\n") != 5 { // HELP + TYPE + 3 series
		t.Errorf("escaped newline leaked a raw line break:\n%q", got)
	}
}

// TestExpositionEmptyRegistry: an empty registry renders an empty (not
// malformed) exposition, and a nil registry/snapshot writes nothing.
func TestExpositionEmptyRegistry(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry rendered %q", b.String())
	}
	var nilReg *Registry
	if err := nilReg.WriteText(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry: err=%v out=%q", err, b.String())
	}
	if snap := nilReg.Snapshot(); snap != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if _, ok := (*Snapshot)(nil).Total("x"); ok {
		t.Fatal("nil snapshot claimed a family")
	}
}

// TestExpositionHelpTypeOrdering: every family renders HELP then TYPE
// then its series, families in name order regardless of registration
// order.
func TestExpositionHelpTypeOrdering(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("zz_gauge", "last family").Set(1)
	reg.Histogram("mm_hist", "middle family", []float64{5}).Observe(1)
	reg.Counter("aa_total", "first family").Inc()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	want := []string{
		"# HELP aa_total first family",
		"# TYPE aa_total counter",
		"aa_total 1",
		"# HELP mm_hist middle family",
		"# TYPE mm_hist histogram",
		`mm_hist_bucket{le="5"} 1`,
		`mm_hist_bucket{le="+Inf"} 1`,
		"mm_hist_sum 1",
		"mm_hist_count 1",
		"# HELP zz_gauge last family",
		"# TYPE zz_gauge gauge",
		"zz_gauge 1",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), b.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestArtifactAndLiveExpositionIdentical: the artifact writer
// (Registry.WriteText / Recorder.WriteMetrics) and the live handler path
// (Snapshot.WriteText) must produce byte-identical text for the same
// registry state at a fixed seed of updates.
func TestArtifactAndLiveExpositionIdentical(t *testing.T) {
	rec := New()
	reg := rec.Metrics()
	for i := 0; i < 100; i++ {
		reg.Counter("ident_cells_total", "cells", L("board", fmt.Sprintf("b%d", i%4))).Add(int64(i))
		reg.Histogram("ident_watts", "watts", []float64{50, 150, 400},
			L("device", "GTX 480"), L("scope", "gpu")).Observe(float64(37*i%500) / 2)
		reg.FloatGauge("ident_power_watts", "power", L("scope", "memory")).Set(float64(i) + 0.125)
	}

	var artifact strings.Builder
	if err := rec.WriteMetrics(&artifact); err != nil {
		t.Fatal(err)
	}
	var live strings.Builder
	if err := reg.Snapshot().WriteText(&live); err != nil {
		t.Fatal(err)
	}
	if artifact.String() != live.String() {
		t.Fatalf("artifact and live expositions diverge:\n--- artifact ---\n%s--- live ---\n%s",
			artifact.String(), live.String())
	}
	if err := ValidateExposition(strings.NewReader(live.String())); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestFloatGaugeRendersMicroDecimal pins the FloatGauge exposition format.
func TestFloatGaugeRendersMicroDecimal(t *testing.T) {
	reg := NewRegistry()
	g := reg.FloatGauge("power_watts", "w", L("scope", "gpu"))
	g.Set(123.456789)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `power_watts{scope="gpu"} 123.456789`) {
		t.Fatalf("unexpected render:\n%s", b.String())
	}
	g.Set(-0.5)
	b.Reset()
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `power_watts{scope="gpu"} -0.5`) {
		t.Fatalf("unexpected negative render:\n%s", b.String())
	}
}

// TestOutOfRangeValuesSaturate: a float gauge set to, or a histogram
// observing, a value micro-units cannot hold renders ±MaxInt64 micro-units
// by its sign, NaN renders 0, and the exposition stays well-formed.
func TestOutOfRangeValuesSaturate(t *testing.T) {
	const max = "9223372036854.775807"
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), max},
		{math.Inf(-1), "-" + max},
		{math.NaN(), "0"},
		{1e13, max},
		{-1e13, "-" + max},
		{9e12, "9000000000000"},
		{-9e12, "-9000000000000"},
		{math.MaxInt64 / 1e6, max},
		{-math.MaxInt64 / 1e6, "-" + max},
	} {
		reg := NewRegistry()
		reg.FloatGauge("g", "gauge").Set(c.v)
		reg.Histogram("h", "histogram", []float64{1}).Observe(c.v)
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		text := b.String()
		for _, line := range []string{"g " + c.want, "h_sum " + c.want} {
			if !strings.Contains(text, "\n"+line+"\n") {
				t.Errorf("%v: exposition lacks %q:\n%s", c.v, line, text)
			}
		}
		if err := ValidateExposition(strings.NewReader(text)); err != nil {
			t.Errorf("%v: %v\n%s", c.v, err, text)
		}
	}
}

// TestProgressStopsOnContextCancel: cancelling the context must end the
// ticker goroutine (final line printed) even when stop is called late —
// and the late stop must still be safe.
func TestProgressStopsOnContextCancel(t *testing.T) {
	rec := New()
	rec.Metrics().Counter("characterize_cells_total", "cells").Add(7)

	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})

	ctx, cancel := context.WithCancel(context.Background())
	stop := rec.StartProgressCtx(ctx, w, time.Hour, "characterize_cells_total")
	cancel()

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		done := strings.Contains(buf.String(), "progress(final):")
		mu.Unlock()
		if done {
			break
		}
		select {
		case <-deadline:
			t.Fatal("ticker goroutine did not stop on context cancel")
		case <-time.After(time.Millisecond):
		}
	}
	stop() // must not hang or double-print
	stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if c := strings.Count(buf.String(), "progress(final):"); c != 1 {
		t.Fatalf("want exactly one final line, got %d:\n%s", c, buf.String())
	}
	if !strings.Contains(buf.String(), "cells=7") {
		t.Fatalf("final line missing counter: %q", buf.String())
	}
}
