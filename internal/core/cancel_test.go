package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"gpuperf/internal/fault"
	"gpuperf/internal/workloads"
)

// TestCollectCtxPreCancelled: a dead context aborts before any
// measurement, with the cause wrapped.
func TestCollectCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CollectCtx(ctx, "GTX 480", modelBenches(t, 3), CollectOptions{Seed: 42, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled collect returned %v, want context.Canceled in the chain", err)
	}
}

// TestCollectCtxRealCancelFuncMidFlight drives a genuine
// context.CancelFunc deterministically: the per-benchmark hook fires the
// cancel while job 2 is in flight, so queued jobs must fail with the
// wrapped cause and the pool stops within the in-flight benchmarks.
func TestCollectCtxRealCancelFuncMidFlight(t *testing.T) {
	benches := modelBenches(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	orig := collectBench
	collectBench = func(ctx context.Context, boardName string, b *workloads.Benchmark, seed int64, res *fault.Resilience, co *collectObs) ([]Observation, int, int, *DroppedBench, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		return orig(ctx, boardName, b, seed, res, co)
	}
	defer func() { collectBench = orig }()

	_, err := CollectCtx(ctx, "GTX 480", benches, CollectOptions{Seed: 42, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collect returned %v, want context.Canceled in the chain", err)
	}
	// Two workers were in flight when the cancel fired; at most one more
	// job each can have slipped past the queue check before observing it.
	if n := started.Load(); n > 4 {
		t.Errorf("%d of %d benchmarks started after a cancel during job 2; the pool is not stopping at job boundaries", n, len(benches))
	}
}

// TestTrainCtxCancelled: model training honours its context at
// selection-step boundaries.
func TestTrainCtxCancelled(t *testing.T) {
	ds, err := CollectCtx(context.Background(), "GTX 480", modelBenches(t, 4),
		CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TrainCtx(ctx, ds, Power, MaxVariables); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainCtx returned %v, want context.Canceled in the chain", err)
	}
}

// TestVariableSweepCancelled: the Figs. 7/8 sweep honours its context at
// selection-step boundaries.
func TestVariableSweepCancelled(t *testing.T) {
	ds, err := CollectCtx(context.Background(), "GTX 480", modelBenches(t, 4),
		CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VariableSweep(ctx, ds, Time, SweepMinVars, SweepMaxVars); !errors.Is(err, context.Canceled) {
		t.Fatalf("VariableSweep returned %v, want context.Canceled in the chain", err)
	}
}

// TestPerPairAndNaiveCancelled: the Figs. 9/10 per-pair fits and the
// clock-blind ablation honour their context at selection-step boundaries.
func TestPerPairAndNaiveCancelled(t *testing.T) {
	ds, err := CollectCtx(context.Background(), "GTX 480", modelBenches(t, 4),
		CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PerPairComparisonWith(ctx, ds, Power, MaxVariables, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("PerPairComparisonWith returned %v, want context.Canceled in the chain", err)
	}
	if _, err := TrainNaive(ctx, ds, Time, MaxVariables); !errors.Is(err, context.Canceled) {
		t.Errorf("TrainNaive returned %v, want context.Canceled in the chain", err)
	}
}
