// The golden test lives in an external test package: it renders through
// report.FleetSummary, and report imports fleet.
package fleet_test

import (
	"context"
	"os"
	"testing"
	"time"

	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/fleet"
	"gpuperf/internal/report"
	"gpuperf/internal/workloads"
)

// TestFleetGolden pins the seed-42 population reports of a 200-device
// default-jitter fleet over the four paper boards, so a change that moves
// any jittered device's numbers fails here even when every shard count
// still agrees with every other. The goldens are the stdout of
//
//	characterize -fleet-size 200 -seed 42 -bench backprop,streamcluster
//
// and of the same command under a fault campaign (boot failures, refused
// clock sets, VBIOS bit flips and meter dropout) with
//
//	-faults "boot.fail:0.1,clockset.fail:0.05,bios.bitflip:0.05,meter.drop:0.0005" -max-retries 2
//
// Each must stay byte-identical at every shard and worker count, and with
// launch caching off (every launch then compiles its kernel afresh).
func TestFleetGolden(t *testing.T) {
	benches := []*workloads.Benchmark{workloads.ByName("backprop"), workloads.ByName("streamcluster")}
	for _, c := range []struct{ golden, faults string }{
		{"testdata/fleet-200-seed42.golden", ""},
		{"testdata/fleet-200-faulted-seed42.golden", "boot.fail:0.1,clockset.fail:0.05,bios.bitflip:0.05,meter.drop:0.0005"},
	} {
		golden, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		profile, err := fault.ParseProfile(c.faults)
		if err != nil {
			t.Fatal(err)
		}
		check := func(shards, workers int, cache bool) {
			t.Helper()
			opts := fleet.Options{
				Seed:    42,
				Size:    200,
				Shards:  shards,
				Workers: workers,
				Jitter:  fleet.DefaultJitter(),
				Benches: benches,
			}
			if c.faults != "" {
				opts.Res = &fault.Resilience{
					Campaign:   &fault.Campaign{Profile: profile, Seed: 42},
					MaxRetries: 2,
					Sleep:      func(time.Duration) {}, // the backoff lands on the virtual timeline either way
				}
				opts.FaultProfile = profile.String()
			}
			rep, err := fleet.Run(context.Background(), opts)
			if err != nil {
				t.Fatalf("%s shards=%d workers=%d cache=%v: %v", c.golden, shards, workers, cache, err)
			}
			if got := report.FleetSummary(rep); got != string(golden) {
				t.Errorf("%s shards=%d workers=%d cache=%v: fleet report diverged from the golden (len %d vs %d)",
					c.golden, shards, workers, cache, len(got), len(golden))
			}
		}
		for _, shards := range []int{1, 3} {
			for _, workers := range []int{1, 2} {
				check(shards, workers, true)
			}
		}
		restore := driver.PushLaunchCachingEnabled(false)
		check(1, 1, false)
		restore()
	}
}
