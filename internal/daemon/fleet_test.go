package daemon

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"gpuperf/internal/obs"
)

// TestDaemonFleetCampaign covers the fleet campaign path end-to-end: a
// kind="fleet" submission runs a sharded population sweep, the terminal
// status JSON carries per-shard progress, the rendered report is the
// fleet population summary, and /metrics exposes every gpuperf_fleet_*
// family with values consistent with the campaign that just ran.
func TestDaemonFleetCampaign(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 680")

	req := CampaignRequest{
		Kind:          KindFleet,
		Seed:          42,
		Workers:       4,
		Boards:        []string{"GTX 680"},
		Benchmarks:    []string{"backprop"},
		FleetSize:     6,
		Shards:        2,
		JitterProfile: "tight",
	}
	code, st, body := postCampaign(t, ts.URL, req)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	final := waitState(t, ts.URL, st.ID, StateCompleted)

	if final.Progress.Planned == 0 || final.Progress.Done != final.Progress.Planned {
		t.Fatalf("final progress: %+v", final.Progress)
	}
	if len(final.Shards) != 2 {
		t.Fatalf("terminal status shards = %+v, want 2 entries", final.Shards)
	}
	var devDone, cells int64
	for _, sp := range final.Shards {
		if sp.DevicesDone != sp.DevicesPlanned || sp.CellsDone != sp.CellsPlanned {
			t.Fatalf("shard %d did not finish: %+v", sp.Shard, sp)
		}
		devDone += sp.DevicesDone
		cells += sp.CellsDone
	}
	if devDone != int64(req.FleetSize) {
		t.Fatalf("devices done = %d, want %d", devDone, req.FleetSize)
	}

	code, rep := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/report")
	if code != 200 || !strings.Contains(rep, "Fleet campaign: 6 devices") {
		t.Fatalf("report: %d\n%s", code, rep)
	}

	// Exposition: every fleet family present, values consistent with the
	// finished campaign, and the text still parses as valid Prometheus.
	_, exp := get(t, ts.URL+"/metrics")
	for _, fam := range []string{
		"gpuperf_fleet_devices_planned 6",
		"gpuperf_fleet_devices_done 6",
		"gpuperf_fleet_shard_lag_cells",
		"gpuperf_fleet_rows_folded_total",
		`gpuperf_fleet_shard_cells_total{shard="0"}`,
		`gpuperf_fleet_shard_cells_total{shard="1"}`,
	} {
		if !strings.Contains(exp, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(exp)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
}

// TestDaemonFleetProgressMatchesShards polls a running fleet campaign's
// status JSON: a fleet-only session has no other cells, so on every poll
// the progress count must equal the sum of the per-shard counts served
// beside it. Both come from one tracker snapshot; two snapshots disagree
// whenever a cell lands between them.
func TestDaemonFleetProgressMatchesShards(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 680")
	req := CampaignRequest{
		Kind:       KindFleet,
		Seed:       42,
		Workers:    2,
		Boards:     []string{"GTX 680"},
		Benchmarks: []string{"backprop", "streamcluster"},
		FleetSize:  1000,
		Shards:     2,
	}
	code, st, body := postCampaign(t, ts.URL, req)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	running := 0
	for {
		code, body := get(t, ts.URL+"/api/v1/campaigns/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var poll CampaignStatus
		if err := json.Unmarshal([]byte(body), &poll); err != nil {
			t.Fatal(err)
		}
		var planned, done int64
		for _, sp := range poll.Shards {
			planned += sp.CellsPlanned
			done += sp.CellsDone
		}
		if poll.Progress.Done != done || poll.Progress.Planned != planned {
			t.Fatalf("%s poll: progress %d/%d cells, shards sum to %d/%d",
				poll.State, poll.Progress.Done, poll.Progress.Planned, done, planned)
		}
		if poll.State == StateRunning && len(poll.Shards) > 0 {
			running++
		}
		if poll.State == StateCompleted {
			break
		}
		if poll.State == StateFailed || poll.State == StateCancelled {
			t.Fatalf("campaign %s: %s", poll.State, poll.Error)
		}
	}
	if running == 0 {
		t.Fatal("no poll saw the fleet running; enlarge the fleet")
	}
	t.Logf("%d polls of a running fleet", running)
}

// badFleetRequests are refused with 400 whatever the served fleet.
var badFleetRequests = []CampaignRequest{
	{Kind: KindFleet},                                           // no fleet_size
	{Kind: KindFleet, FleetSize: -3},                            // negative population
	{Kind: KindFleet, FleetSize: 4, Shards: -1},                 // negative shards
	{Kind: KindFleet, FleetSize: 4, JitterProfile: "bogus:0.1"}, // unknown jitter key
	{Kind: KindFleet, FleetSize: 4, JitterProfile: "meter:1.5"}, // out of [0, 1]
	{Kind: KindFleet, FleetSize: 4, Repetitions: 3},             // fleets don't repeat
	{Kind: KindFleet, FleetSize: 2, MinValid: 1},                // fleets are not triaged
	{Kind: KindSweep, FleetSize: 4},                             // fleet knob on sweep
	{Kind: KindModel, Shards: 2},                                // fleet knob on model
	{JitterProfile: "tight"},                                    // fleet knob on default kind
}

// TestDaemonRejectsBadFleetRequests pins the fleet slice of the 400-path
// contract: fleet kinds need a population, fleet knobs are rejected on
// classic kinds, and jitter strings are validated at submission.
func TestDaemonRejectsBadFleetRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, "GTX 680")
	for _, req := range badFleetRequests {
		if code, _, body := postCampaign(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("request %+v: got %d, want 400 (%s)", req, code, body)
		}
	}
}
