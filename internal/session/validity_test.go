package session

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"gpuperf/internal/obs"
	"gpuperf/internal/workloads"
)

// TestSessionCohortIdentityAndValidation: the session stamps one cohort
// from its resolved configuration, NewTriage inherits the repetition
// policy, and an out-of-range publishability floor is rejected at Open.
func TestSessionCohortIdentityAndValidation(t *testing.T) {
	s := open(t, WithBoards("GTX 480"), func(c *Config) { c.Repetitions, c.MinValid, c.CodeVersion = 3, 2, "test" })
	c := s.Cohort()
	if c.Seed != 42 || !reflect.DeepEqual(c.Boards, []string{"GTX 480"}) || c.Profile != "" || c.CodeVersion != "test" {
		t.Errorf("cohort = %+v", c)
	}
	if h := c.Hash(); len(h) != 16 {
		t.Errorf("cohort hash %q not 16 hex chars", h)
	}
	if got := s.NewTriage().MinValid(); got != 2 {
		t.Errorf("triage MinValid = %d, want 2", got)
	}

	cfg := DefaultConfig()
	cfg.Repetitions, cfg.MinValid = 2, 3
	if _, err := Open(cfg); err == nil {
		t.Error("min-valid above repetitions accepted")
	}
	cfg = DefaultConfig()
	cfg.MinValid = -1
	if _, err := Open(cfg); err == nil {
		t.Error("negative min-valid accepted")
	}
}

// TestTriageOn: triage engages when a report is asked for or the
// repetition policy has something to judge, and a classic single-run
// session stays off.
func TestTriageOn(t *testing.T) {
	for _, tc := range []struct {
		name   string
		option Option
		want   bool
	}{
		{"single run", WithSeed(42), false},
		{"triage report", func(c *Config) { c.TriageOut = "baseline.json" }, true},
		{"two repetitions", func(c *Config) { c.Repetitions = 2 }, true},
		{"min-valid floor", func(c *Config) { c.MinValid = 1 }, true},
	} {
		if got := open(t, WithBoards("GTX 480"), tc.option).TriageOn(); got != tc.want {
			t.Errorf("%s: TriageOn = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSessionCohortStampedIntoMetrics: an instrumented session exposes
// the campaign_cohort_info gauge carrying the cohort hash and code
// version, so every recorded artifact names the campaign it measured.
func TestSessionCohortStampedIntoMetrics(t *testing.T) {
	rec := obs.New()
	s := open(t, WithBoards("GTX 480"), WithObs(rec), func(c *Config) { c.CodeVersion = "testver" })
	var buf bytes.Buffer
	if err := rec.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "campaign_cohort_info") {
		t.Fatalf("exposition missing campaign_cohort_info:\n%s", out)
	}
	if !strings.Contains(out, s.Cohort().Hash()) || !strings.Contains(out, "testver") {
		t.Errorf("cohort labels missing from exposition:\n%s", out)
	}
}

// TestSessionRepeatRepZeroMatchesSweep: repetition 0 of Repeat is
// bit-identical to a plain Sweep (including the attached run verdicts),
// and later repetitions draw independent measurement noise.
func TestSessionRepeatRepZeroMatchesSweep(t *testing.T) {
	benches := workloads.Table4()[:2]
	ctx := context.Background()

	s := open(t, WithBoards("GTX 480"), func(c *Config) { c.Repetitions, c.CodeVersion = 2, "test" })
	reps, err := s.Repeat(ctx, benches)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("got %d repetitions, want 2", len(reps))
	}

	single, err := s.Sweep(ctx, benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reps[0], single) {
		t.Error("repetition 0 is not bit-identical to a plain Sweep")
	}

	differ := false
	for i := range single["GTX 480"] {
		for pi := range single["GTX 480"][i].Pairs {
			if reps[1]["GTX 480"][i].Pairs[pi].AvgWatts != single["GTX 480"][i].Pairs[pi].AvgWatts {
				differ = true
			}
		}
	}
	if !differ {
		t.Error("repetition 1 is bit-identical to repetition 0: repetition seeds are not independent")
	}
}
