package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gpuperf/internal/fault"
	"gpuperf/internal/workloads"
)

// modelBenches is a small modeling subset that keeps the pool tests fast
// while still spanning several independent noise streams.
func modelBenches(t *testing.T, n int) []*workloads.Benchmark {
	t.Helper()
	all := workloads.ModelingSet()
	if len(all) < n {
		t.Fatalf("modeling set has only %d benchmarks", len(all))
	}
	return all[:n]
}

// TestCollectParallelDeepEqual is the satellite determinism claim in its
// strongest form: per-benchmark seeding makes the pooled dataset deeply
// identical to the sequential one at any worker count (core_test.go's
// TestCollectParallelMatchesSequential checks selected fields; this one
// compares the whole Dataset).
func TestCollectParallelDeepEqual(t *testing.T) {
	benches := modelBenches(t, 4)
	want, err := CollectCtx(context.Background(), "GTX 480", benches, CollectOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := CollectCtx(context.Background(), "GTX 480", benches, CollectOptions{Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel dataset differs from sequential", workers)
		}
	}
}

// TestCollectErrorPathDoesNotLeak is the goroutine-leak regression test.
// The old collector returned at the first failed chunk while the remaining
// workers blocked forever on unbuffered channels; the rewritten pool must
// report the lowest-index error and let every goroutine finish.
func TestCollectErrorPathDoesNotLeak(t *testing.T) {
	benches := modelBenches(t, 6)
	boom := func(i int) error { return fmt.Errorf("injected failure on benchmark #%d", i) }
	orig := collectBench
	collectBench = func(ctx context.Context, boardName string, b *workloads.Benchmark, seed int64, res *fault.Resilience, co *collectObs) ([]Observation, int, int, *DroppedBench, error) {
		for i, fail := range benches {
			// Fail every odd-index benchmark; index 1 must win the report.
			if b == fail && i%2 == 1 {
				return nil, 0, 0, nil, boom(i)
			}
		}
		return orig(ctx, boardName, b, seed, res, co)
	}
	defer func() { collectBench = orig }()

	before := runtime.NumGoroutine()
	_, err := CollectCtx(context.Background(), "GTX 480", benches, CollectOptions{Seed: 42, Workers: 3})
	if err == nil {
		t.Fatal("injected failures did not surface")
	}
	if want := boom(1).Error(); err.Error() != want {
		t.Errorf("reported %q, want the lowest-index error %q", err, want)
	}

	// Every worker must have exited; allow the scheduler a moment.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after the failed collect, started with %d — workers leaked", got, before)
	}
}

// TestCollectErrorIsSchedulingIndependent: repeated failing runs must
// report the same error regardless of which worker hits it first.
func TestCollectErrorIsSchedulingIndependent(t *testing.T) {
	benches := modelBenches(t, 5)
	wantErr := errors.New("injected")
	orig := collectBench
	collectBench = func(ctx context.Context, boardName string, b *workloads.Benchmark, seed int64, res *fault.Resilience, co *collectObs) ([]Observation, int, int, *DroppedBench, error) {
		if b == benches[2] || b == benches[4] {
			return nil, 0, 0, nil, fmt.Errorf("%w: %s", wantErr, b.Name)
		}
		return nil, 1, 0, nil, nil
	}
	defer func() { collectBench = orig }()

	for trial := 0; trial < 5; trial++ {
		_, err := CollectCtx(context.Background(), "GTX 480", benches, CollectOptions{Seed: 42, Workers: 4})
		if err == nil {
			t.Fatal("injected failures did not surface")
		}
		if want := fmt.Sprintf("injected: %s", benches[2].Name); err.Error() != want {
			t.Fatalf("trial %d: reported %q, want %q (lowest index)", trial, err, want)
		}
	}
}
