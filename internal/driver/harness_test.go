package driver

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/fault"
	"gpuperf/internal/gpu"
)

func testCancelled(ctx context.Context) error {
	return fmt.Errorf("test: cancelled: %w", context.Cause(ctx))
}

// TestPoolLowestIndexError: every job runs, and the reported failure is
// the lowest-index one whichever worker hits it first.
func TestPoolLowestIndexError(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		var ran atomic.Int64
		err := Pool(context.Background(), 4, 9, testCancelled, func(i int) error {
			ran.Add(1)
			if i%3 == 2 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 2" {
			t.Fatalf("trial %d: Pool returned %v, want the lowest-index error \"job 2\"", trial, err)
		}
		if n := ran.Load(); n != 9 {
			t.Fatalf("trial %d: %d of 9 jobs ran", trial, n)
		}
	}
	if err := Pool(context.Background(), 3, 0, testCancelled, nil); err != nil {
		t.Fatalf("empty pool returned %v", err)
	}
}

// TestPoolCancelled: a done context fails every queued job with the
// caller's cancellation error and runs none of them.
func TestPoolCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Pool(ctx, 2, 4, testCancelled, func(int) error {
		t.Error("a job ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) || err.Error() != "test: cancelled: context canceled" {
		t.Fatalf("Pool returned %v, want the caller's cancellation error", err)
	}
}

// TestHarnessBootExhaustion: a boot that keeps failing returns no device,
// the last attempt index and the blamed fault point.
func TestHarnessBootExhaustion(t *testing.T) {
	res := &fault.Resilience{Campaign: faultCampaign(t, "boot.fail:1", 1), MaxRetries: 2,
		Sleep: func(time.Duration) {}}
	h := Harness{Res: res, Cancelled: testCancelled}
	opens := 0
	dev, attempt, pt, err := h.Boot(context.Background(), "GTX 680|backprop", func(in *fault.Injector) (*Device, error) {
		opens++
		return OpenBoardWithFaults("GTX 680", in)
	})
	if err != nil || dev != nil {
		t.Fatalf("Boot returned (%v, %v), want an exhausted boot", dev, err)
	}
	if attempt != 2 || pt != fault.BootFail || opens != 3 {
		t.Fatalf("Boot exhausted at attempt %d on %q after %d opens, want attempt 2 on boot.fail after 3",
			attempt, pt, opens)
	}

	ok, attempt, _, err := Harness{Cancelled: testCancelled}.Boot(context.Background(), "s",
		func(in *fault.Injector) (*Device, error) { return OpenBoardWithFaults("GTX 680", in) })
	if err != nil || ok == nil || attempt != 0 {
		t.Fatalf("nil-Resilience boot returned (%v, %d, %v), want a device on attempt 0", ok, attempt, err)
	}
}

// TestRunMeteredRetriedNilResilienceIsPlainRun: with a nil Resilience the
// pass loop is one plain metered run at the pair, seeded by the tag, with
// any injector the device carried detached.
func TestRunMeteredRetriedNilResilienceIsPlainRun(t *testing.T) {
	p := clock.Pair{Core: arch.FreqMid, Mem: arch.FreqLow}
	ks := []*gpu.KernelDesc{testKernel(64)}
	open := func() *Device {
		d, err := OpenBoard("GTX 680")
		if err != nil {
			t.Fatal(err)
		}
		d.Seed(7)
		return d
	}
	plain := open()
	if err := plain.SetClocks(p); err != nil {
		t.Fatal(err)
	}
	plain.SeedScoped("pair|" + p.String())
	want, err := plain.RunMetered("w", ks, 0.01, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	d := open()
	d.AttachFaults(faultCampaign(t, "clockset.fail:1,launch.hang:1", 3).Injector("s", 0))
	got, attempt, pt, err := d.RunMeteredRetried(context.Background(), Harness{Cancelled: testCancelled},
		p, "s", "pair|"+p.String(), "w", ks, 0.01, 0.5)
	if err != nil || got == nil || attempt != 0 || pt != "" {
		t.Fatalf("RunMeteredRetried returned (%v, %d, %q, %v), want a clean first attempt", got, attempt, pt, err)
	}
	if !reflect.DeepEqual(got.Measurement, want.Measurement) || got.Time != want.Time {
		t.Fatal("nil-Resilience pass differs from a plain metered run")
	}
	if d.faults != nil {
		t.Error("the pass loop left the device's injector attached")
	}
}
