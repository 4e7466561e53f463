package characterize

import (
	"context"
	"strings"
	"testing"

	"gpuperf/internal/validity"
)

// triageFor builds a triage engine matching a test sweep's shape.
func triageFor(seed int64, profile string, reps, minValid int) *validity.Triage {
	cohort := validity.Cohort{Seed: seed, Boards: []string{"GTX 460"}, Profile: profile, CodeVersion: "test"}
	return validity.NewTriage(cohort, reps, minValid, 0)
}

// TestTriageRepetitionsAgreeFaultFree: a fault-free N=3 repetition cohort
// must classify every cell VALID — the per-repetition measurement noise
// stays inside the agreement tolerance. This is the empirical anchor for
// validity.DefaultTolerance: if the noise model ever outgrows it, this
// test is the tripwire.
func TestTriageRepetitionsAgreeFaultFree(t *testing.T) {
	benches := benchSubset(t)
	const seed, reps = 42, 3
	repsRes, err := SweepReps(context.Background(), []string{"GTX 460"}, benches,
		SweepOptions{Seed: seed, Workers: 2}, reps)
	if err != nil {
		t.Fatal(err)
	}
	if len(repsRes) != reps {
		t.Fatalf("got %d repetitions, want %d", len(repsRes), reps)
	}

	// Repetition 0 is the campaign itself: bit-identical to a single run.
	single, err := Sweep(context.Background(), []string{"GTX 460"}, benches, SweepOptions{Seed: seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurements(t, single["GTX 460"], repsRes[0]["GTX 460"])

	// Later repetitions draw fresh meter noise: at least one cell must
	// differ from repetition 0, or the repetitions are vacuous replicas.
	// (Simulated kernel time is deterministic; the noise is in the power
	// measurement.)
	differ := false
	for i, r0 := range repsRes[0]["GTX 460"] {
		r1 := repsRes[1]["GTX 460"][i]
		for pi := range r0.Pairs {
			if r0.Pairs[pi].AvgWatts != r1.Pairs[pi].AvgWatts {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("repetition 1 is bit-identical to repetition 0: repetition seeds are not independent")
	}

	tr := triageFor(seed, "", reps, reps)
	if err := ObserveTriageReps(tr, "table4", repsRes); err != nil {
		t.Fatal(err)
	}
	report := tr.Finalize()
	if n := len(report.Cells); n == 0 {
		t.Fatal("triage saw no cells")
	}
	if !report.Publishable() {
		for _, c := range report.Cells {
			if c.Class != validity.Valid {
				t.Errorf("fault-free cell %s/%s@%s: %s (%s), spread %.4f",
					c.Board, c.Bench, c.Pair, c.Class, c.Reason, c.Spread)
			}
		}
	}
}

// TestTriageExhaustedRetriesIsInfraFlake: a pair that exhausts its retry
// budget under launch.hang watchdog kills is an INFRA_FLAKE whose reason
// carries the fault point and the attempt count.
func TestTriageExhaustedRetriesIsInfraFlake(t *testing.T) {
	benches := benchSubset(t)[:1]
	const seed = 42
	prof := "launch.hang:1"
	res := chaosRes(t, prof, seed)
	res.MaxRetries = 2
	got := sweepBoard(t, "GTX 460", benches, SweepOptions{Seed: seed, Workers: 1, Res: res})
	if q := got[0].QuarantinedCells(); q != len(got[0].Pairs) {
		t.Fatalf("%d of %d cells quarantined under a certain hang", q, len(got[0].Pairs))
	}

	tr := triageFor(seed, prof, 1, 1)
	if err := ObserveTriage(tr, "table4", 0, map[string][]*BenchResult{"GTX 460": got}); err != nil {
		t.Fatal(err)
	}
	v, ok := tr.CellVerdict("table4", "GTX 460", got[0].Benchmark, got[0].Pairs[0].Pair.String())
	if !ok || v.Class != validity.InfraFlake {
		t.Fatalf("verdict %+v (ok=%v), want INFRA_FLAKE", v, ok)
	}
	for _, want := range []string{"launch.hang", "after 3 attempts"} {
		if !strings.Contains(v.Reason, want) {
			t.Errorf("reason %q missing %q", v.Reason, want)
		}
	}
	// The bench-level verdict (Table IV renders per bench) inherits it.
	bv, ok := tr.BenchVerdict("table4", "GTX 460", got[0].Benchmark)
	if !ok || bv.Class != validity.InfraFlake {
		t.Errorf("bench verdict %+v (ok=%v), want INFRA_FLAKE", bv, ok)
	}
}

// TestTriageLowConfidenceIsDistinctFlake: a meter stuck for nearly the
// whole window yields an accepted-but-reconstructed measurement whose
// confidence falls below the floor — an INFRA_FLAKE with the distinct
// low-confidence reason, not the exhausted-retries one.
func TestTriageLowConfidenceIsDistinctFlake(t *testing.T) {
	benches := benchSubset(t)[:1]
	const seed = 42
	prof := "meter.stuck:1:1000"
	res := chaosRes(t, prof, seed)
	res.MaxRetries = 1
	got := sweepBoard(t, "GTX 460", benches, SweepOptions{Seed: seed, Workers: 1, Res: res})
	// The stuck run starts at a random sample, so per-pair damage varies;
	// pick the worst-hit cell, which must fall below the confidence floor.
	var pr *PairResult
	for i := range got[0].Pairs {
		c := &got[0].Pairs[i]
		if c.Quarantined {
			t.Fatal("stuck-meter cell was quarantined; the fault should degrade, not kill")
		}
		if pr == nil || c.Confidence < pr.Confidence {
			pr = c
		}
	}
	if pr.Confidence >= validity.DefaultMinConfidence {
		t.Fatalf("confidence %.3f did not fall below the %.2f floor; fault profile too weak for the test",
			pr.Confidence, validity.DefaultMinConfidence)
	}
	if pr.Verdict.Class != validity.InfraFlake {
		t.Fatalf("verdict %+v, want INFRA_FLAKE", pr.Verdict)
	}
	for _, want := range []string{"meter confidence", "interpolated"} {
		if !strings.Contains(pr.Verdict.Reason, want) {
			t.Errorf("reason %q missing %q", pr.Verdict.Reason, want)
		}
	}
	if strings.Contains(pr.Verdict.Reason, "retry budget") {
		t.Errorf("low-confidence reason %q collides with the exhausted-retries reason", pr.Verdict.Reason)
	}
}
