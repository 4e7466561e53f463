package characterize

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpuperf/internal/clock"
	"gpuperf/internal/fault"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

func profile(t *testing.T, spec string) *fault.Profile {
	t.Helper()
	p, err := fault.ParseProfile(spec)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", spec, err)
	}
	return p
}

// chaosRes returns a retry policy over an all-transient fault profile with
// enough budget that every cell eventually lands a clean attempt.
func chaosRes(t *testing.T, spec string, seed int64) *fault.Resilience {
	t.Helper()
	return &fault.Resilience{
		Campaign:      &fault.Campaign{Profile: profile(t, spec), Seed: seed},
		MaxRetries:    10,
		LaunchTimeout: 30 * time.Millisecond,
		BackoffBase:   time.Microsecond,
		BackoffMax:    10 * time.Microsecond,
		Sleep:         func(time.Duration) {},
	}
}

// openBareJournal opens a checkpoint journal bound to a bare (seed,
// profile) cohort — no board set, no code version.
func openBareJournal(path string, seed int64, profile string) (*Journal, error) {
	return OpenJournalCohort(path, JournalConfig{Cohort: validity.Cohort{Seed: seed, Profile: profile}})
}

func benchSubset(t *testing.T) []*workloads.Benchmark {
	t.Helper()
	all := workloads.Table4()
	if len(all) < 2 {
		t.Fatal("need at least two benchmarks")
	}
	return all[:2]
}

// sameMeasurements asserts the measured values of two sweeps agree cell by
// cell (retry counts may differ; the physics must not).
func sameMeasurements(t *testing.T, want, got []*BenchResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d vs %d bench results", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Benchmark != g.Benchmark || w.Board != g.Board || len(w.Pairs) != len(g.Pairs) {
			t.Fatalf("result shape mismatch: %s/%s vs %s/%s", w.Board, w.Benchmark, g.Board, g.Benchmark)
		}
		for j := range w.Pairs {
			wp, gp := w.Pairs[j], g.Pairs[j]
			if wp.Pair != gp.Pair || wp.Quarantined != gp.Quarantined ||
				wp.TimePerIter != gp.TimePerIter || wp.AvgWatts != gp.AvgWatts ||
				wp.EnergyPerIter != gp.EnergyPerIter {
				t.Errorf("%s/%s @ %s: cell diverged:\nwant %+v\ngot  %+v",
					w.Board, w.Benchmark, wp.Pair, wp, gp)
			}
		}
	}
}

// TestResilientSweepRecoversByteIdentical: under an all-transient profile
// with a sufficient retry budget, the resilient sweep measures exactly
// what the plain sweep measures.
func TestResilientSweepRecoversByteIdentical(t *testing.T) {
	benches := benchSubset(t)
	const board = "GTX 480"
	plain := sweepBoard(t, board, benches, SweepOptions{Seed: 42, Workers: 1})
	res := chaosRes(t, "launch.hang:0.05,clockset.fail:0.05,boot.fail:0.2,meter.drop:0.01,bios.bitflip:0.03", 7)
	got := sweepBoard(t, board, benches, SweepOptions{Seed: 42, Workers: 2, Res: res})
	sameMeasurements(t, plain, got)
	retried := 0
	for _, r := range got {
		for _, pr := range r.Pairs {
			retried += pr.Retries
		}
	}
	if retried == 0 {
		t.Error("chaos profile triggered no retries — the harness was not exercised")
	}
	if len(Degradations(map[string][]*BenchResult{board: got})) != 0 {
		t.Error("fully recovered campaign reported degradations")
	}
}

// TestResilientSweepZeroProbabilityIdentical: a profile of all-zero
// probabilities routes through the harness yet changes nothing.
func TestResilientSweepZeroProbabilityIdentical(t *testing.T) {
	benches := benchSubset(t)
	const board = "GTX 285"
	plain := sweepBoard(t, board, benches, SweepOptions{Seed: 42, Workers: 1})
	res := chaosRes(t, "launch.hang:0,meter.drop:0,boot.fail:0", 7)
	got := sweepBoard(t, board, benches, SweepOptions{Seed: 42, Workers: 1, Res: res})
	sameMeasurements(t, plain, got)
}

// TestPermanentFaultQuarantines: probability-1 clock-set failure exhausts
// every retry budget; cells are quarantined, Best is nil, and the
// degradation summary says where.
func TestPermanentFaultQuarantines(t *testing.T) {
	benches := benchSubset(t)[:1]
	res := chaosRes(t, "clockset.fail:1", 3)
	res.MaxRetries = 2
	got := sweepBoard(t, "GTX 680", benches, SweepOptions{Seed: 42, Workers: 1, Res: res})
	r := got[0]
	if q := r.QuarantinedCells(); q != len(r.Pairs) {
		t.Fatalf("%d of %d cells quarantined under a permanent fault", q, len(r.Pairs))
	}
	if r.Best() != nil || r.Default() != nil {
		t.Error("quarantined sweep still reports best/default pairs")
	}
	if r.ImprovementPct() != 0 {
		t.Error("quarantined sweep reports a nonzero improvement")
	}
	if Curves(r, nil) != nil {
		t.Error("quarantined sweep yields curves")
	}
	degs := Degradations(map[string][]*BenchResult{"GTX 680": got})
	if len(degs) != len(r.Pairs) {
		t.Fatalf("%d degradation lines, want %d", len(degs), len(r.Pairs))
	}
	for _, d := range degs {
		if d.Board != "GTX 680" || d.Bench != r.Benchmark {
			t.Errorf("degradation misattributed: %+v", d)
		}
	}
	// Permanent boot failure quarantines the same way.
	bres := chaosRes(t, "boot.fail:1", 3)
	bres.MaxRetries = 1
	bgot := sweepBoard(t, "GTX 680", benches, SweepOptions{Seed: 42, Workers: 1, Res: bres})
	if q := bgot[0].QuarantinedCells(); q != len(bgot[0].Pairs) {
		t.Errorf("boot-dead board: %d of %d cells quarantined", q, len(bgot[0].Pairs))
	}
}

// TestJournalCheckpointAndResume: kill a campaign mid-way (simulated by
// truncating its journal), resume, and get the identical final result with
// the surviving cells answered from the checkpoint.
func TestJournalCheckpointAndResume(t *testing.T) {
	benches := benchSubset(t)
	const board = "GTX 460"
	const seed = 42
	prof := "launch.hang:0.05,meter.drop:0.01"
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.journal")

	run := func() ([]*BenchResult, *Journal) {
		j, err := openBareJournal(path, seed, prof)
		if err != nil {
			t.Fatal(err)
		}
		res := chaosRes(t, prof, 9)
		got := sweepBoard(t, board, benches, SweepOptions{Seed: seed, Workers: 1, Res: res, Journal: j})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return got, j
	}
	first, j1 := run()
	if j1.Hits() != 0 {
		t.Errorf("fresh journal answered %d cells", j1.Hits())
	}

	// Simulate a crash: chop the journal to half its lines plus a torn
	// trailing fragment.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := 0
	for i, b := range data {
		if b == '\n' {
			lines++
			if lines == 6 {
				cut = i + 1
				break
			}
		}
	}
	if cut == 0 {
		t.Fatalf("journal has only %d lines", lines)
	}
	torn := append(append([]byte(nil), data[:cut]...), []byte(`{"kind":"cell","boa`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, j2 := run()
	if j2.Hits() == 0 {
		t.Error("resumed run replayed no cells from the checkpoint")
	}
	sameMeasurements(t, first, resumed)

	// A journal recorded under a different seed or profile is a hard
	// error — resuming it would silently change the published results —
	// and the journal survives on disk, byte for byte.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = openBareJournal(path, seed+1, prof)
	var mismatch *CohortMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("seed-mismatched open: err=%v, want *CohortMismatchError", err)
	}
	if mismatch.Old.Seed != seed || mismatch.New.Seed != seed+1 {
		t.Errorf("mismatch error carries seeds %d/%d, want %d/%d",
			mismatch.Old.Seed, mismatch.New.Seed, seed, seed+1)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("cohort-mismatched open modified the journal")
	}
}

// TestJournalRoundTripsCells: a recorded cell (including a quarantined
// one) survives the JSON round trip exactly.
func TestJournalRoundTripsCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	j, err := openBareJournal(path, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	p, err := clock.ParsePair("(H-L)")
	if err != nil {
		t.Fatal(err)
	}
	cell := PairResult{Pair: p, TimePerIter: 0.123456789123456789, AvgWatts: 321.0000000001,
		EnergyPerIter: 39.6e-3, Retries: 2, Confidence: 0.975, Interpolated: 1}
	cell.Verdict = cell.Classify()
	quar := PairResult{Pair: clock.DefaultPair(), Quarantined: true, FailPoint: fault.LaunchHang, Retries: 3}
	quar.Verdict = quar.Classify()
	rep1 := cell
	rep1.TimePerIter = 0.2
	if err := j.Record("B", "bench", 0, cell); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("B", "bench", 0, quar); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("B", "bench", 1, rep1); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := openBareJournal(path, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.Lookup("B", "bench", 0, p)
	if !ok || got != cell {
		t.Errorf("cell round trip: %+v -> %+v (ok=%v)", cell, got, ok)
	}
	gq, ok := j2.Lookup("B", "bench", 0, clock.DefaultPair())
	if !ok || gq != quar {
		t.Errorf("quarantined round trip: %+v -> %+v (ok=%v)", quar, gq, ok)
	}
	gr, ok := j2.Lookup("B", "bench", 1, p)
	if !ok || gr != rep1 {
		t.Errorf("rep-1 round trip: %+v -> %+v (ok=%v)", rep1, gr, ok)
	}
	if _, ok := j2.Lookup("B", "other", 0, p); ok {
		t.Error("journal answered a cell it never recorded")
	}
	if _, ok := j2.Lookup("B", "bench", 2, p); ok {
		t.Error("journal answered a repetition it never recorded")
	}
}
