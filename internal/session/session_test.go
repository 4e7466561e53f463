package session

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gpuperf/internal/characterize"
	"gpuperf/internal/core"
	"gpuperf/internal/fault"
	"gpuperf/internal/workloads"
)

func open(t *testing.T, options ...Option) *Session {
	t.Helper()
	s, err := New(options...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// engineSweep is the engine's sequential GTX 480 sweep: the reference the
// session's sweeps must reproduce.
func engineSweep(t *testing.T, benches []*workloads.Benchmark) []*characterize.BenchResult {
	t.Helper()
	m, err := characterize.Sweep(context.Background(), []string{"GTX 480"}, benches,
		characterize.SweepOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m["GTX 480"]
}

func TestDefaultsAndBoardResolution(t *testing.T) {
	s := open(t)
	if got := s.Config().Seed; got != 42 {
		t.Errorf("default seed = %d, want 42", got)
	}
	if got := len(s.Boards()); got != 4 {
		t.Errorf("default board count = %d, want the paper's 4", got)
	}

	s2 := open(t, WithBoards("GTX 480", "GTX 285"), WithSeed(7), WithWorkers(2))
	if got := s2.BoardNames(); !reflect.DeepEqual(got, []string{"GTX 480", "GTX 285"}) {
		t.Errorf("resolved boards = %v", got)
	}

	for _, tc := range []struct {
		boards []string
		want   string
	}{
		{[]string{"Voodoo 2"}, `session: unknown board "Voodoo 2"`},
		{[]string{"GTX 480", "GTX 480"}, `session: board "GTX 480" listed twice`},
	} {
		if _, err := New(WithBoards(tc.boards...)); err == nil || err.Error() != tc.want {
			t.Errorf("boards %q: got %v, want %q", tc.boards, err, tc.want)
		}
	}
	if _, err := New(WithWorkers(5), WithRetryPolicy(-1, time.Second)); err == nil {
		t.Error("negative retry budget accepted")
	}
}

// TestSweepMatchesEngineReference: the Session sweep must reproduce the
// engine's sequential sweep bit-for-bit, at any worker count.
func TestSweepMatchesEngineReference(t *testing.T) {
	benches := workloads.Table4()[:3]
	want := engineSweep(t, benches)
	for _, workers := range []int{1, 4} {
		s := open(t, WithBoards("GTX 480"), WithWorkers(workers))
		m, err := s.Sweep(context.Background(), benches)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m["GTX 480"], want) {
			t.Fatalf("workers=%d: session sweep differs from the reference", workers)
		}
	}
}

// TestCollectAndModelMatchReference: dataset and trained model through
// the Session equal the engine's sequential reference.
func TestCollectAndModelMatchReference(t *testing.T) {
	benches := workloads.ModelingSet()[:4]
	wantDS, err := core.CollectCtx(context.Background(), "GTX 480", benches, core.CollectOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, WithBoards("GTX 480"), WithWorkers(3))
	ds, err := s.Collect(context.Background(), "GTX 480", benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, wantDS) {
		t.Fatal("session dataset differs from the sequential reference")
	}
	wantM, err := core.Train(wantDS, core.Power, core.MaxVariables)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Model(context.Background(), ds, core.Power)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, wantM) {
		t.Fatal("session model differs from core.Train")
	}
}

// TestJournalOwnership: the session opens the checkpoint journal, its
// campaigns record into it, and Close (idempotent) releases it exactly
// once.
func TestJournalOwnership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := New(WithBoards("GTX 480"), WithWorkers(1), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	if s.Journal() == nil {
		t.Fatal("checkpointed session has no journal")
	}
	benches := workloads.Table4()[:2]
	if _, err := s.Sweep(context.Background(), benches); err != nil {
		t.Fatal(err)
	}
	if got := s.Journal().Len(); got == 0 {
		t.Error("sweep recorded no cells in the session journal")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file missing after Close: %v", err)
	}
}

// TestJournalResumeAfterCancel: a cancelled sweep leaves the journal
// resumable, and the resumed sweep replays the finished cells and ends
// bit-identical to an uninterrupted run.
func TestJournalResumeAfterCancel(t *testing.T) {
	benches := workloads.Table4()[:3]
	want := engineSweep(t, benches)
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	s1, err := New(WithBoards("GTX 480"), WithWorkers(1), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	// The virtual clock makes sweeps too fast to cancel by wall time, so
	// trip the context deterministically partway through: Err turns
	// terminal after a fixed number of boundary checks.
	ctx := &cancelAfter{Context: context.Background(), after: 8}
	if _, err := s1.Sweep(ctx, benches); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled in the chain", err)
	}
	done := s1.Journal().Len()
	var wantCells int
	for _, br := range want {
		wantCells += len(br.Pairs)
	}
	if done == 0 || done >= wantCells {
		t.Fatalf("journal has %d of %d cells after cancel, want a strict partial prefix", done, wantCells)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(WithBoards("GTX 480"), WithWorkers(1), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Sweep(context.Background(), benches)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Journal().Hits() == 0 {
		t.Error("resumed sweep replayed no journal cells")
	}
	if !reflect.DeepEqual(got["GTX 480"], want) {
		t.Fatal("resumed sweep differs from an uninterrupted run")
	}
}

// TestPreCancelledContext: every campaign method refuses a dead context
// with the cause wrapped in its error.
func TestPreCancelledContext(t *testing.T) {
	s := open(t, WithBoards("GTX 480"), WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	benches := workloads.Table4()[:2]
	if _, err := s.Sweep(ctx, benches); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep: %v", err)
	}
	if _, err := s.Collect(ctx, "GTX 480", workloads.ModelingSet()[:2]); !errors.Is(err, context.Canceled) {
		t.Errorf("Collect: %v", err)
	}
}

// TestFaultySessionMatchesResilientPath: a fault-profile session must
// reproduce the engine's dataset under the same retry policy exactly.
func TestFaultySessionMatchesResilientPath(t *testing.T) {
	profile, err := fault.ParseProfile("boot.fail:0.2,meter.spike:0.1:500")
	if err != nil {
		t.Fatal(err)
	}
	benches := workloads.ModelingSet()[:3]
	res := &fault.Resilience{
		Campaign:      &fault.Campaign{Profile: profile, Seed: 42},
		MaxRetries:    fault.DefaultMaxRetries,
		LaunchTimeout: fault.DefaultLaunchTimeout,
	}
	want, err := core.CollectCtx(context.Background(), "GTX 480", benches,
		core.CollectOptions{Seed: 42, Workers: 2, Res: res})
	if err != nil {
		t.Fatal(err)
	}
	s := open(t, WithBoards("GTX 480"), WithWorkers(2), WithFaults(profile))
	got, err := s.Collect(context.Background(), "GTX 480", benches)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("faulty session dataset differs from the engine under the same policy")
	}
}

func TestDeviceFactory(t *testing.T) {
	s := open(t, WithSeed(7))
	dev, err := s.Device("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	if dev.Spec().Name != "GTX 480" {
		t.Errorf("device spec = %q", dev.Spec().Name)
	}
	if _, err := s.Device("Voodoo 2"); err == nil {
		t.Error("unknown board opened")
	}
}

// cancelAfter is a context whose Err turns — and stays — non-nil after
// the n-th check: a deterministic mid-campaign cancel for the
// virtual-clock engine, where wall-clock cancellation would be a race.
// context.Cause falls back to Err for custom contexts, so the engines'
// wrapped cause is context.Canceled as for a real CancelFunc.
type cancelAfter struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}
