package fleet

import (
	"context"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
)

// sweepJob returns one fleet sweep job: a jittered GTX 680 × backprop
// through characterize.SweepStream, as a shard batch runs each device.
// The call builds the benchmark's timing table, boots the device, adopts
// the table, meters its 7 valid pairs and releases the device. No sink is
// attached, so nothing but the engine runs.
func sweepJob(tb testing.TB) func() {
	fl, err := New(42, []string{"GTX 680"}, 1, DefaultJitter())
	if err != nil {
		tb.Fatal(err)
	}
	dev := fl.Device(0)
	names := []string{dev.Name}
	benches := testBenches(tb, "backprop")
	opts := characterize.SweepOptions{
		Seed:    42,
		Workers: 1,
		Boot: func(_ string, in *fault.Injector) (*driver.Device, error) {
			d, err := driver.OpenSpecWithFaults(dev.Spec, in)
			if err != nil {
				return nil, err
			}
			d.Meter().Gain = dev.MeterGain
			return d, nil
		},
		SpecOf: func(string) *arch.Spec { return dev.Spec },
	}
	return func() {
		if err := characterize.SweepStream(context.Background(), names, benches, opts); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSweepJobAllocs caps what one fleet sweep job allocates. The device
// launches every cell from the shared timing table and stores no launch
// payloads, so the job's count is the table, the boot, the pool and the
// seven cells' results.
func TestSweepJobAllocs(t *testing.T) {
	const maxAllocs = 72
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops a random share of what it is given, so results and streams are not always reused")
	}
	job := sweepJob(t)
	job() // fill the pools the job draws from
	if n := testing.AllocsPerRun(20, job); n > maxAllocs {
		t.Errorf("a sweep job allocates %v objects, want ≤ %d", n, maxAllocs)
	}
}

// BenchmarkSweepJob is the ledger's "one sweep cell" row, measured as the
// job that holds seven of them (sweepJob).
func BenchmarkSweepJob(b *testing.B) {
	job := sweepJob(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job()
	}
}
