package characterize

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
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

// sweepBoard runs the engine over one board and unwraps its results.
func sweepBoard(t *testing.T, board string, benches []*workloads.Benchmark, opts SweepOptions) []*BenchResult {
	t.Helper()
	m, err := Sweep(context.Background(), []string{board}, benches, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m[board]
}

// TestSweepBoardParallelMatchesSequential: the pooled sweep must be deeply
// identical to the sequential one at any worker count — each benchmark
// owns a fresh device and an independent noise stream, so scheduling
// cannot reorder any rng draws.
func TestSweepBoardParallelMatchesSequential(t *testing.T) {
	benches := sweepSet(t, 5)
	want := sweepBoard(t, "GTX 480", benches, SweepOptions{Seed: 42, Workers: 1})
	for _, workers := range []int{1, 3, 8} {
		got := sweepBoard(t, "GTX 480", benches, SweepOptions{Seed: 42, Workers: workers})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel sweep differs from sequential", workers)
		}
	}
}

// TestSweepBoardsMatchesPerBoardSweeps: the full-width (board, benchmark)
// grid pool must reproduce the per-board sequential sweeps exactly, and
// so must the single-device sweep on a device seeded the way the engine
// seeds it — SweepBenchmarkCtx is the engine's per-device loop. The
// Radeon HD 7970 (no Table I board) boots through the Boot/SpecOf seam.
func TestSweepBoardsMatchesPerBoardSweeps(t *testing.T) {
	benches := sweepSet(t, 3)
	radeon := arch.RadeonHD7970()
	open := func(name string) (*driver.Device, error) {
		if name == radeon.Name {
			return driver.OpenSpec(radeon)
		}
		return driver.OpenBoard(name)
	}
	opts := SweepOptions{Seed: 42,
		Boot: func(name string, in *fault.Injector) (*driver.Device, error) {
			if name == radeon.Name {
				return driver.OpenSpecWithFaults(radeon, in)
			}
			return driver.OpenBoardWithFaults(name, in)
		},
		SpecOf: func(name string) *arch.Spec {
			if name == radeon.Name {
				return radeon
			}
			return arch.BoardByName(name)
		},
	}
	boards := []string{"GTX 285", "GTX 460", "GTX 480", "GTX 680", radeon.Name}
	grid := opts
	grid.Workers = 4
	got, err := Sweep(context.Background(), boards, benches, grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, board := range boards {
		seq := opts
		seq.Workers = 1
		want := sweepBoard(t, board, benches, seq)
		if !reflect.DeepEqual(got[board], want) {
			t.Fatalf("%s: grid-pool sweep differs from sequential per-board sweep", board)
		}
		for i, b := range benches {
			dev, err := open(board)
			if err != nil {
				t.Fatal(err)
			}
			dev.Seed(sweepSeed(42, b.Name))
			single, err := SweepBenchmarkCtx(context.Background(), dev, b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(single, got[board][i]) {
				t.Fatalf("%s / %s: SweepBenchmarkCtx differs from the engine's sweep", board, b.Name)
			}
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

	want, err := Sweep(context.Background(), boards, benches, SweepOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	got, err := Sweep(context.Background(), boards, benches, SweepOptions{Seed: 42, Workers: 8})
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
	_, err := Sweep(context.Background(), []string{"GTX 480", "no such board", "also bogus"}, benches,
		SweepOptions{Seed: 42, Workers: 4})
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
	want := sweepBoard(t, "GTX 460", benches, SweepOptions{Seed: 7, Workers: 1})
	got := sweepBoard(t, "GTX 460", benches, SweepOptions{Seed: 7, Workers: 64})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("overwide pool changed the sweep results")
	}
}
