// The checkpoint tests live in an external test package: a reproduction
// resumes from the journal its session opened, as cmd/paper -checkpoint
// does.
package reproduce_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/characterize"
	"gpuperf/internal/fault"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
)

// measurementOnly selects the Section III sweeps alone.
var measurementOnly = reproduce.Sections{Characterization: true}

// reproduceCheckpointed reproduces the GTX 480 sweeps through a session
// that journals to cp, and returns the report.
func reproduceCheckpointed(t *testing.T, cp string, options ...session.Option) (string, *reproduce.Result) {
	t.Helper()
	options = append([]session.Option{
		session.WithBoards("GTX 480"),
		session.WithWorkers(4),
		session.WithCheckpoint(cp),
	}, options...)
	s, err := session.New(options...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := reproduce.Run(context.Background(), s, measurementOnly, &buf)
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return buf.String(), res
}

func requireSameReport(t *testing.T, ref, got string) {
	t.Helper()
	ref, got = stripElapsed(ref), stripElapsed(got)
	if ref != got {
		t.Fatalf("resumed report diverges at line %d", firstDiffLine(got, ref))
	}
}

// TestReproduceCheckpointResume: a journaled campaign replays completed
// cells on resume — including resume from a torn journal — and the
// resumed report is byte-identical to the original.
func TestReproduceCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("single-board characterization; skipped with -short")
	}
	profile, err := fault.ParseProfile("launch.hang:0.02,clockset.fail:0.03,meter.drop:0.0002")
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "journal.jsonl")
	chaos := []session.Option{session.WithFaults(profile), session.WithRetryPolicy(10, 30*time.Millisecond)}

	first, _ := reproduceCheckpointed(t, cp, chaos...)

	// A complete journal: every cell replays, nothing is remeasured.
	second, res2 := reproduceCheckpointed(t, cp, chaos...)
	if res2.CheckpointHits == 0 {
		t.Error("resume from a complete journal replayed no cells")
	}
	requireSameReport(t, first, second)

	// A torn journal (killed mid-write): the readable prefix replays, the
	// tail — including the torn line — is remeasured.
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	torn := strings.Join(lines[:len(lines)/2], "\n") + "\n" + `{"kind":"cell","boa`
	if err := os.WriteFile(cp, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	third, res3 := reproduceCheckpointed(t, cp, chaos...)
	if res3.CheckpointHits == 0 {
		t.Error("resume from a torn journal replayed no cells")
	}
	requireSameReport(t, first, third)
}

// TestReproduceCheckpointCohortMismatch: resuming a checkpoint under any
// other cohort (here a different seed) is a hard error from session.Open
// that leaves the journal byte-identical on disk — never a silent reset.
func TestReproduceCheckpointCohortMismatch(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "journal.jsonl")
	reproduceCheckpointed(t, cp, func(c *session.Config) { c.CodeVersion = "test" })
	before, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}

	s, err := session.New(session.WithSeed(7), session.WithBoards("GTX 480"),
		func(c *session.Config) { c.CodeVersion = "test" }, session.WithCheckpoint(cp))
	if err == nil {
		_ = s.Close() // the test fails below either way
	}
	var cm *characterize.CohortMismatchError
	if !errors.As(err, &cm) {
		t.Fatalf("got %v, want *characterize.CohortMismatchError", err)
	}
	if cm.Old.Seed != 42 || cm.New.Seed != 7 {
		t.Errorf("mismatch seeds: old %d new %d", cm.Old.Seed, cm.New.Seed)
	}
	after, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("journal changed on a rejected resume")
	}
}
