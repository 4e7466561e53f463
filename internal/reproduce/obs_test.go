package reproduce

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/obs"
	"gpuperf/internal/trace"
)

// obsArtifacts holds the three deterministic exports of one instrumented
// campaign.
type obsArtifacts struct {
	metrics string
	trace   string
	events  string
}

// runInstrumented runs the scoped-down reproduction with a fresh recorder
// attached.
func runInstrumented(t *testing.T, opts Options) obsArtifacts {
	t.Helper()
	rec := obs.New()
	opts.Obs = rec
	var report bytes.Buffer
	if _, err := RunContext(context.Background(), opts, &report); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var m, tr, ev bytes.Buffer
	if err := rec.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := trace.FromRecorder(rec).WriteJSON(&tr); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteEvents(&ev); err != nil {
		t.Fatal(err)
	}
	return obsArtifacts{metrics: m.String(), trace: tr.String(), events: ev.String()}
}

// requireSameArtifact fails at the first diverging line, which localizes a
// determinism break far better than a giant string diff.
func requireSameArtifact(t *testing.T, what, ref, got string) {
	t.Helper()
	if ref == got {
		return
	}
	refLines, gotLines := strings.Split(ref, "\n"), strings.Split(got, "\n")
	n := len(refLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if refLines[i] != gotLines[i] {
			t.Fatalf("%s diverges at line %d:\n  ref: %q\n  got: %q", what, i+1, refLines[i], gotLines[i])
		}
	}
	t.Fatalf("%s lengths differ: %d vs %d lines", what, len(refLines), len(gotLines))
}

// TestObsByteIdenticalAcrossRunsAndWorkers is the tentpole invariant: the
// metrics exposition, the Perfetto trace and the JSONL event log of a
// same-seed campaign are byte-identical run over run AND at any worker
// count — no wall-clock, no float accumulation, no scheduling order leaks
// into the artifacts.
func TestObsByteIdenticalAcrossRunsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("three single-board reproductions; skipped with -short")
	}
	opts := faultOpts()
	ref := runInstrumented(t, opts)
	again := runInstrumented(t, opts)
	requireSameArtifact(t, "metrics", ref.metrics, again.metrics)
	requireSameArtifact(t, "trace", ref.trace, again.trace)
	requireSameArtifact(t, "events", ref.events, again.events)

	sequential := opts
	sequential.Workers = 1
	seq := runInstrumented(t, sequential)
	// The pool-width gauge is the one legitimate difference.
	fix := strings.NewReplacer(
		"characterize_pool_workers 1", "characterize_pool_workers 4",
	)
	requireSameArtifact(t, "metrics (workers=1 vs 4)", ref.metrics, fix.Replace(seq.metrics))
	requireSameArtifact(t, "trace (workers=1 vs 4)", ref.trace, seq.trace)

	// Sanity: the instrumentation actually recorded the campaign.
	for _, family := range []string{
		"driver_launch_cache_hits_total", "driver_launch_cache_misses_total",
		"driver_launches_total", "characterize_cells_total", "core_rows_total",
		"meter_samples_total", "fault_retries_total",
		"characterize_cells_quarantined_total", "regress_forward_selections_total",
	} {
		if !strings.Contains(ref.metrics, "# TYPE "+family+" ") {
			t.Errorf("metrics exposition is missing the %s family", family)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(ref.metrics)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
	if err := obs.ValidateTraceJSON([]byte(ref.trace)); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

// TestObsByteIdenticalUnderFaults repeats the invariant with a live chaos
// profile: injections, retries and backoff advance the virtual clock
// deterministically, so the artifacts still match byte for byte.
func TestObsByteIdenticalUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("two single-board chaos reproductions; skipped with -short")
	}
	opts := faultOpts()
	opts.Faults = mustProfile(t, "launch.hang:0.02,clockset.fail:0.03,boot.fail:0.1,meter.drop:0.0002")
	opts.MaxRetries = 10
	opts.LaunchTimeout = 30 * time.Millisecond

	ref := runInstrumented(t, opts)
	again := runInstrumented(t, opts)
	requireSameArtifact(t, "metrics", ref.metrics, again.metrics)
	requireSameArtifact(t, "trace", ref.trace, again.trace)
	requireSameArtifact(t, "events", ref.events, again.events)

	if !strings.Contains(ref.metrics, `fault_injections_total{point="`) {
		t.Error("chaos campaign recorded no injections")
	}
	if !strings.Contains(ref.metrics, `fault_retries_total{point="`) {
		t.Error("chaos campaign recorded no retries")
	}
	if !strings.Contains(ref.trace, `"retry"`) {
		t.Error("trace has no retry instants")
	}
}

// TestObsNocacheDiffersOnlyInCacheCounters: disabling launch memoization
// may change only the driver_launch_cache_* sample lines of the
// exposition — every other counter, and the virtual timeline, must hold.
func TestObsNocacheDiffersOnlyInCacheCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("two single-board characterizations; skipped with -short")
	}
	opts := faultOpts()
	opts.Modeling = false

	cached := runInstrumented(t, opts)
	opts.Cache = false
	uncached := runInstrumented(t, opts)

	cachedLines := strings.Split(cached.metrics, "\n")
	uncachedLines := strings.Split(uncached.metrics, "\n")
	if len(cachedLines) != len(uncachedLines) {
		t.Fatalf("exposition shapes differ: %d vs %d lines", len(cachedLines), len(uncachedLines))
	}
	for i := range cachedLines {
		if cachedLines[i] == uncachedLines[i] {
			continue
		}
		if !strings.HasPrefix(cachedLines[i], "driver_launch_cache_") {
			t.Errorf("non-cache line differs:\n  cached:   %q\n  uncached: %q",
				cachedLines[i], uncachedLines[i])
		}
	}
	if !strings.Contains(cached.metrics, `driver_launch_cache_hits_total{board="GTX 480",cache="device"}`) {
		t.Error("cached run recorded no device cache hits")
	}
}
