// The golden test lives in an external test package: it renders through
// report.FleetSummary, and report imports fleet.
package fleet_test

import (
	"context"
	"os"
	"testing"

	"gpuperf/internal/driver"
	"gpuperf/internal/fleet"
	"gpuperf/internal/report"
	"gpuperf/internal/workloads"
)

// TestFleetGolden pins the seed-42 population report of a 200-device
// default-jitter fleet over the four paper boards, so a change that moves
// any jittered device's numbers fails here even when every shard count
// still agrees with every other. The golden is the stdout of
//
//	characterize -fleet-size 200 -seed 42 -bench backprop,streamcluster
//
// and must stay byte-identical at every shard and worker count, and with
// launch caching off (every launch then compiles its kernel afresh).
func TestFleetGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/fleet-200-seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	benches := []*workloads.Benchmark{workloads.ByName("backprop"), workloads.ByName("streamcluster")}
	check := func(shards, workers int, cache bool) {
		t.Helper()
		rep, err := fleet.Run(context.Background(), fleet.Options{
			Seed:    42,
			Size:    200,
			Shards:  shards,
			Workers: workers,
			Jitter:  fleet.DefaultJitter(),
			Benches: benches,
		})
		if err != nil {
			t.Fatalf("shards=%d workers=%d cache=%v: %v", shards, workers, cache, err)
		}
		if got := report.FleetSummary(rep); got != string(golden) {
			t.Errorf("shards=%d workers=%d cache=%v: fleet report diverged from the golden (len %d vs %d)",
				shards, workers, cache, len(got), len(golden))
		}
	}
	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 2} {
			check(shards, workers, true)
		}
	}
	defer driver.PushLaunchCachingEnabled(false)()
	check(1, 1, false)
}
