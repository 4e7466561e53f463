package characterize

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"gpuperf/internal/driver"
	"gpuperf/internal/workloads"
)

// cancelAfter is a context whose Err turns — and stays — non-nil after
// the n-th boundary check: a deterministic mid-campaign cancel for the
// virtual-clock engine, where wall-clock cancellation would be a race.
// context.Cause falls back to Err for custom contexts, so the engine's
// wrapped cause is context.Canceled exactly as for a real CancelFunc.
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

// TestSweepPreCancelled: a dead context aborts before any measurement;
// the journal stays empty and the cause is wrapped.
func TestSweepPreCancelled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openBareJournal(path, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Sweep(ctx, []string{"GTX 480"}, workloads.Table4()[:2],
		SweepOptions{Seed: 42, Workers: 2, Journal: j})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled in the chain", err)
	}
	if j.Len() != 0 {
		t.Errorf("journal recorded %d cells under a dead context", j.Len())
	}
}

// TestSweepCancelMultiBoardResumes is the acceptance scenario: one cancel
// aborts a multi-board pooled sweep mid-flight at a cell boundary, the
// journal is left resumable, and the resumed sweep is bit-identical to an
// uninterrupted run.
func TestSweepCancelMultiBoardResumes(t *testing.T) {
	boards := []string{"GTX 285", "GTX 680"}
	benches := workloads.Table4()[:3]
	want, err := Sweep(context.Background(), boards, benches, SweepOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wantCells int
	for _, rs := range want {
		for _, r := range rs {
			wantCells += len(r.Pairs)
		}
	}

	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := openBareJournal(path, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), after: 25}
	_, err = Sweep(ctx, boards, benches, SweepOptions{Seed: 42, Workers: 2, Journal: j})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled in the chain", err)
	}
	done := j.Len()
	if done == 0 || done >= wantCells {
		t.Fatalf("journal has %d of %d cells after cancel, want a strict partial prefix", done, wantCells)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := openBareJournal(path, 42, "")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, err := Sweep(context.Background(), boards, benches, SweepOptions{Seed: 42, Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Hits() == 0 {
		t.Error("resumed sweep replayed no journal cells")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep differs from an uninterrupted run")
	}
}

// TestSweepBenchmarkCtxCancelled: the single-device sweep entry point
// honours its context too.
func TestSweepBenchmarkCtxCancelled(t *testing.T) {
	dev, err := driver.OpenBoard("GTX 480")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepBenchmarkCtx(ctx, dev, workloads.ByName("backprop")); !errors.Is(err, context.Canceled) {
		t.Fatalf("SweepBenchmarkCtx returned %v, want context.Canceled in the chain", err)
	}
}
