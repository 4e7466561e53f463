package reproduce

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/validity"
)

// triageOpts is the scoped-down campaign the validity e2e tests run: one
// board, characterization only, pinned code version so cohort hashes are
// stable across build environments.
func triageOpts() Options {
	opts := faultOpts()
	opts.Modeling = false
	opts.CodeVersion = "test"
	return opts
}

// TestReproduceTriageFaultFreeCohort is the headline acceptance: a
// fault-free seed-42 N=3 repetition campaign classifies every cell VALID,
// its baseline.json is byte-identical across worker counts, and the
// written file survives ReadReport's structural validation.
func TestReproduceTriageFaultFreeCohort(t *testing.T) {
	if testing.Short() {
		t.Skip("repetition cohort e2e in -short mode")
	}
	dir := t.TempDir()
	opts := triageOpts()
	opts.Repetitions = 3
	opts.TriageOut = filepath.Join(dir, "w4", "baseline.json")
	report4, res4 := runReport(t, opts)

	if res4.Triage == nil {
		t.Fatal("no triage report on the result")
	}
	if !res4.Triage.Publishable() {
		t.Fatalf("fault-free cohort not publishable: %s", res4.Triage.Summary())
	}
	if n := res4.Triage.Counts[validity.Valid]; n != len(res4.Triage.Cells) || n == 0 {
		t.Errorf("VALID cells = %d of %d", n, len(res4.Triage.Cells))
	}
	for _, table := range []string{"fig1-3", "table4"} {
		tr, ok := res4.Triage.Tables[table]
		if !ok || tr.Cells == 0 {
			t.Errorf("table %q missing from provenance (%+v)", table, tr)
		}
	}
	if !strings.Contains(report4, "== Campaign validity triage ==") {
		t.Error("text report carries no triage section")
	}

	opts1 := opts
	opts1.Workers = 1
	opts1.TriageOut = filepath.Join(dir, "w1", "baseline.json")
	report1, _ := runReport(t, opts1)
	requireSameReport(t, report4, report1)

	b4, err := os.ReadFile(opts.TriageOut)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(opts1.TriageOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b4, b1) {
		t.Error("baseline.json differs across worker counts")
	}
	parsed, err := validity.ReadReport(b4)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if parsed.CohortHash != res4.Triage.CohortHash {
		t.Errorf("file cohort %s != result cohort %s", parsed.CohortHash, res4.Triage.CohortHash)
	}
}

// TestReproduceTriageChaosGatesTableIV: a chaos campaign whose retry
// budget a hang rate exhausts must surface the dead cells as INFRA_FLAKE
// in baseline.json and as "n/a (unstable)" in Table IV — never as
// published best-pair claims.
func TestReproduceTriageChaosGatesTableIV(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos triage e2e in -short mode")
	}
	opts := triageOpts()
	opts.Faults = mustProfile(t, "launch.hang:0.12,meter.stuck:0.05:400")
	opts.MaxRetries = 1
	opts.LaunchTimeout = 50 * time.Millisecond
	opts.TriageOut = filepath.Join(t.TempDir(), "baseline.json")
	report, res := runReport(t, opts)

	if res.Triage == nil {
		t.Fatal("no triage report on the result")
	}
	flakes := res.Triage.Counts[validity.InfraFlake]
	if flakes == 0 {
		t.Fatalf("chaos profile produced no INFRA_FLAKE cells: %s", res.Triage.Summary())
	}
	if res.Triage.Publishable() {
		t.Error("campaign with exhausted cells is publishable")
	}
	if !strings.Contains(report, "n/a (unstable)") {
		t.Error("Table IV shows no unstable cells")
	}
	if !strings.Contains(report, string(validity.InfraFlake)) {
		t.Error("triage section lists no INFRA_FLAKE verdicts")
	}
	found := false
	for _, c := range res.Triage.Cells {
		if c.Class == validity.InfraFlake && strings.Contains(c.Reason, "retry budget exhausted") {
			found = true
		}
	}
	if !found {
		t.Error("no flake carries the exhausted-retries reason")
	}

	data, err := os.ReadFile(opts.TriageOut)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := validity.ReadReport(data)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if parsed.Counts[validity.InfraFlake] != flakes {
		t.Errorf("file says %d flakes, result says %d", parsed.Counts[validity.InfraFlake], flakes)
	}
}

// TestReproduceModelingDropsTriaged: a permanent fault that drops
// benchmarks from the modeling set surfaces them in the "modeling"
// provenance table as INFRA_FLAKE cells, with the survivors VALID.
func TestReproduceModelingDropsTriaged(t *testing.T) {
	if testing.Short() {
		t.Skip("modeling triage e2e in -short mode")
	}
	opts := faultOpts()
	opts.Characterization = false
	opts.CodeVersion = "test"
	opts.Faults = mustProfile(t, "launch.hang:0.12")
	opts.MaxRetries = 1
	opts.LaunchTimeout = 50 * time.Millisecond
	opts.TriageOut = filepath.Join(t.TempDir(), "baseline.json")
	_, res := runReport(t, opts)

	if res.Triage == nil {
		t.Fatal("no triage report on the result")
	}
	mt, ok := res.Triage.Tables["modeling"]
	if !ok || mt.Cells == 0 {
		t.Fatalf("modeling table missing from provenance: %+v", res.Triage.Tables)
	}
	if len(res.Dropped) == 0 {
		t.Skip("profile dropped nothing at this seed; modeling flake path not exercised")
	}
	if len(mt.Unstable) == 0 {
		t.Error("dropped benchmarks did not surface as unstable modeling cells")
	}
	for _, c := range res.Triage.Cells {
		if c.Table != "modeling" || c.Class == validity.Valid {
			continue
		}
		if c.Pair != "-" || !strings.Contains(c.Reason, "dropped from the modeling set") {
			t.Errorf("modeling flake cell malformed: %+v", c)
		}
	}
}
