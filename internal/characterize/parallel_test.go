package characterize

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/workloads"
)

func sweepSet(t *testing.T, n int) []*workloads.Benchmark {
	t.Helper()
	all := workloads.Table4()
	if len(all) < n {
		t.Fatalf("Table IV set has only %d benchmarks", len(all))
	}
	return all[:n]
}

// TestSweepBoardParallelMatchesSequential: the pooled sweep must be deeply
// identical to the sequential one at any worker count — each benchmark
// owns a fresh device and an independent noise stream, so scheduling
// cannot reorder any rng draws.
func TestSweepBoardParallelMatchesSequential(t *testing.T) {
	benches := sweepSet(t, 5)
	want, err := SweepBoard("GTX 480", benches, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := SweepBoardParallel("GTX 480", benches, 42, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel sweep differs from sequential", workers)
		}
	}
}

// TestSweepBoardsMatchesPerBoardSweeps: the full-width (board, benchmark)
// grid pool must reproduce the per-board sequential sweeps exactly.
func TestSweepBoardsMatchesPerBoardSweeps(t *testing.T) {
	benches := sweepSet(t, 3)
	boards := []string{"GTX 285", "GTX 680"}
	got, err := SweepBoards(boards, benches, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, board := range boards {
		want, err := SweepBoard(board, benches, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[board], want) {
			t.Fatalf("%s: grid-pool sweep differs from sequential per-board sweep", board)
		}
	}
}

// TestSweepBatchedColdCacheWorkers8 pins the batched fast path under
// maximum concurrency: eight workers sweep a multi-board grid, each job
// batch-filling its own device's launch cache through PrecomputePairs
// while the others do the same. The results must be deeply identical to a
// sequential sweep — under -race this is also the data-race check that no
// launch state is shared between jobs.
func TestSweepBatchedColdCacheWorkers8(t *testing.T) {
	benches := sweepSet(t, 4)
	boards := []string{"GTX 480", "GTX 680", "GTX 285"}

	want, err := SweepBoards(boards, benches, 42, 1)
	if err != nil {
		t.Fatal(err)
	}

	got, err := SweepBoards(boards, benches, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("workers=8 cold-cache batched sweep differs from sequential cold-cache sweep")
	}
}

// TestSweepPoolErrorPath: a failing job mid-grid must surface the
// lowest-index error, and every worker must exit (the leak-proofing the
// core collector needed, checked here on the sweep pool).
func TestSweepPoolErrorPath(t *testing.T) {
	benches := sweepSet(t, 3)
	before := runtime.NumGoroutine()
	// Board #2 of 3 is bogus: jobs 3..5 fail; job 3 is the lowest.
	_, err := SweepBoards([]string{"GTX 480", "no such board", "also bogus"}, benches, 42, 4)
	if err == nil {
		t.Fatal("unknown board did not surface an error")
	}
	if !strings.Contains(err.Error(), "no such board") {
		t.Errorf("reported %q, want the lowest-index failure (board \"no such board\")", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after the failed sweep, started with %d — workers leaked", got, before)
	}
}

// TestSweepBoardParallelOverwidePool: worker counts past the job count
// must clamp rather than spin up idle goroutines or deadlock.
func TestSweepBoardParallelOverwidePool(t *testing.T) {
	benches := sweepSet(t, 2)
	want, err := SweepBoard("GTX 460", benches, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SweepBoardParallel("GTX 460", benches, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("overwide pool changed the sweep results")
	}
}
