package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"gpuperf/internal/fault"
	"gpuperf/internal/workloads"
)

func chaosRes(t *testing.T, spec string, seed int64) *fault.Resilience {
	t.Helper()
	p, err := fault.ParseProfile(spec)
	if err != nil {
		t.Fatalf("ParseProfile(%q): %v", spec, err)
	}
	return &fault.Resilience{
		Campaign:      &fault.Campaign{Profile: p, Seed: seed},
		MaxRetries:    10,
		LaunchTimeout: 30 * time.Millisecond,
		BackoffBase:   time.Microsecond,
		BackoffMax:    10 * time.Microsecond,
		Sleep:         func(time.Duration) {},
	}
}

// TestCollectResilientConvergesToPlainDataset: under an all-transient
// profile with a sufficient retry budget the resilient collector produces
// the exact rows the plain collector does.
func TestCollectResilientConvergesToPlainDataset(t *testing.T) {
	benches := workloads.ModelingSet()[:2]
	const board = "GTX 480"
	plain, err := CollectCtx(context.Background(), board, benches, CollectOptions{Seed: 42, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// meter.drop is per sample and long benchmarks cover hundreds of
	// samples, so its probability must be far smaller than the per-run
	// points for a clean attempt to land within the retry budget.
	res := chaosRes(t, "launch.hang:0.03,clockset.fail:0.03,boot.fail:0.2,meter.drop:0.0002,launch.corrupt:0.03,bios.bitflip:0.02", 5)
	got, err := CollectCtx(context.Background(), board, benches, CollectOptions{Seed: 42, Workers: 2, Res: res})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dropped) != 0 {
		t.Fatalf("transient profile dropped benchmarks: %+v", got.Dropped)
	}
	if got.Retries == 0 {
		t.Error("chaos profile triggered no retries — the harness was not exercised")
	}
	if !reflect.DeepEqual(plain.Rows, got.Rows) || plain.Samples != got.Samples {
		t.Error("resilient dataset diverged from the plain dataset")
	}
}

// TestCollectResilientNilPolicyIdentical: a nil Resilience collects exactly
// what the fault-free harness does — the policy a session builds when only
// a checkpoint or a recorder is configured.
func TestCollectResilientNilPolicyIdentical(t *testing.T) {
	benches := workloads.ModelingSet()[:1]
	const board = "GTX 285"
	harness := &fault.Resilience{Campaign: &fault.Campaign{Seed: 42}}
	plain, err := CollectCtx(context.Background(), board, benches, CollectOptions{Seed: 42, Workers: 1, Res: harness})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectCtx(context.Background(), board, benches, CollectOptions{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rows, got.Rows) {
		t.Error("nil-policy dataset diverged from the fault-free harness")
	}
}

// TestCollectResilientDropsDeadBenchmark: a permanent fault exhausts the
// budget and the benchmark is dropped, not fatal.
func TestCollectResilientDropsDeadBenchmark(t *testing.T) {
	benches := workloads.ModelingSet()[:2]
	res := chaosRes(t, "launch.corrupt:1", 3)
	res.MaxRetries = 2
	got, err := CollectCtx(context.Background(), "GTX 680", benches, CollectOptions{Seed: 42, Workers: 1, Res: res})
	if err != nil {
		t.Fatal(err)
	}
	// launch.corrupt only fires on profiled passes, and every benchmark
	// profiles — so every benchmark drops and no rows survive.
	if len(got.Dropped) != len(benches) {
		t.Fatalf("dropped %d benchmarks, want %d: %+v", len(got.Dropped), len(benches), got.Dropped)
	}
	for _, d := range got.Dropped {
		if d.Point != fault.LaunchCorrupt {
			t.Errorf("dropped %s blamed on %q, want launch.corrupt", d.Benchmark, d.Point)
		}
	}
	if len(got.Rows) != 0 || got.Samples != 0 {
		t.Errorf("dead benchmarks left %d rows, %d samples", len(got.Rows), got.Samples)
	}

	// A permanent boot failure drops the same way.
	bres := chaosRes(t, "boot.fail:1", 3)
	bres.MaxRetries = 1
	bgot, err := CollectCtx(context.Background(), "GTX 680", benches[:1], CollectOptions{Seed: 42, Workers: 1, Res: bres})
	if err != nil {
		t.Fatal(err)
	}
	if len(bgot.Dropped) != 1 || bgot.Dropped[0].Point != fault.BootFail {
		t.Errorf("boot-dead benchmark not dropped correctly: %+v", bgot.Dropped)
	}
}
