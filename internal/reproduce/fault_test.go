package reproduce

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/fault"
)

func mustProfile(t *testing.T, spec string) *fault.Profile {
	t.Helper()
	p, err := fault.ParseProfile(spec)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", spec, err)
	}
	return p
}

// faultOpts is the scoped-down reproduction the fault e2e tests run: one
// board, measurement sections only.
func faultOpts() Options {
	opts := DefaultOptions()
	opts.Boards = []string{"GTX 480"}
	opts.Apparatus = false
	opts.Ablations = false
	opts.FutureWork = false
	opts.SelfCheck = false
	opts.Workers = 4
	return opts
}

func runReport(t *testing.T, opts Options) (string, *Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := RunContext(context.Background(), opts, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return buf.String(), res
}

func requireSameReport(t *testing.T, ref, got string) {
	t.Helper()
	ref, got = stripElapsed(ref), stripElapsed(got)
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
			t.Fatalf("report diverges at line %d:\n  ref: %q\n  got: %q", i+1, refLines[i], gotLines[i])
		}
	}
	t.Fatalf("report lengths differ: %d vs %d lines", len(refLines), len(gotLines))
}

// TestReproduceTransientCampaignByteIdentical is the tentpole invariant:
// an all-transient fault campaign with a sufficient retry budget produces
// a report byte-identical (modulo the wall-clock line) to the fault-free
// run at the same seed.
func TestReproduceTransientCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("single-board reproduction; skipped with -short")
	}
	opts := faultOpts()
	ref, _ := runReport(t, opts)

	faulty := opts
	// meter.drop is per sample — long benchmarks cover hundreds of samples,
	// so it must stay far smaller than the per-run points (see
	// core/resilient_test.go).
	faulty.Faults = mustProfile(t, "launch.hang:0.02,clockset.fail:0.03,boot.fail:0.1,meter.drop:0.0002,launch.corrupt:0.02,bios.bitflip:0.02")
	faulty.MaxRetries = 10
	faulty.LaunchTimeout = 30 * time.Millisecond
	got, res := runReport(t, faulty)

	if res.Retries == 0 {
		t.Error("chaos profile triggered no retries — the harness was not exercised")
	}
	if res.DegradedCells != 0 {
		t.Errorf("transient campaign left %d degraded cells", res.DegradedCells)
	}
	if len(res.Dropped) != 0 {
		t.Errorf("transient campaign dropped benchmarks: %+v", res.Dropped)
	}
	requireSameReport(t, ref, got)
}

// TestReproduceZeroProbabilityProfileIdentical: engaging the resilient
// code paths with a profile that can never fire changes nothing.
func TestReproduceZeroProbabilityProfileIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("single-board characterization; skipped with -short")
	}
	opts := faultOpts()
	opts.Modeling = false
	ref, _ := runReport(t, opts)

	faulty := opts
	faulty.Faults = mustProfile(t, "launch.hang:0,meter.drop:0")
	got, res := runReport(t, faulty)
	if res.Retries != 0 {
		t.Errorf("zero-probability profile retried %d times", res.Retries)
	}
	requireSameReport(t, ref, got)
}

// TestReproducePermanentFaultDegradesGracefully: a fault that never goes
// away quarantines every characterization cell and drops every modeled
// benchmark, and the run still completes with a degradation summary.
func TestReproducePermanentFaultDegradesGracefully(t *testing.T) {
	opts := faultOpts()
	opts.Faults = mustProfile(t, "clockset.fail:1")
	opts.MaxRetries = 1
	report, res := runReport(t, opts)

	if res.DegradedCells == 0 {
		t.Error("permanent fault produced no degraded cells")
	}
	if len(res.Dropped["GTX 480"]) == 0 {
		t.Error("permanent fault dropped no modeled benchmarks")
	}
	if imp := res.MeanImprovementPct["GTX 480"]; imp != 0 {
		t.Errorf("all-quarantined board reports %.1f%% improvement, want 0", imp)
	}
	for _, want := range []string{
		"n/a (unstable)",
		"(unstable — no surviving cells)",
		"== Fault-campaign degradation summary ==",
		"quarantined after 1 retries (clockset.fail)",
		"dropped from the modeling set (clockset.fail)",
		"no modeling data survived the fault campaign",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
