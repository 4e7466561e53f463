package session

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"gpuperf/internal/workloads"
)

func TestOpenRejectsBadFleetConfig(t *testing.T) {
	for i, fc := range []struct {
		size, shards int
		jitter       string
	}{
		{-1, 1, ""},
		{0, 4, ""},      // shards without a fleet
		{0, 1, "tight"}, // jitter without a fleet
		{10, 1, "corevolt:2"},
		{10, 1, "bogus:0.1"},
	} {
		cfg := DefaultConfig()
		cfg.FleetSize, cfg.FleetShards, cfg.FleetJitter = fc.size, fc.shards, fc.jitter
		if _, err := Open(cfg); err == nil {
			t.Errorf("case %d: bad fleet config accepted", i)
		}
	}
}

// tightFleet configures a six-device fleet with the tight jitter profile.
func tightFleet(shards int) Option {
	return func(c *Config) { c.FleetSize, c.FleetShards, c.FleetJitter = 6, shards, "tight" }
}

// TestSessionFleetCampaign runs a small fleet through a session over one,
// three and four base boards (GTX 285 exposes 8 pairs, the others 7), so
// the planned cell count must follow each device's base-board grid.
func TestSessionFleetCampaign(t *testing.T) {
	bench := workloads.ByName("backprop")
	if bench == nil {
		t.Fatal("backprop not registered")
	}
	for _, boards := range [][]string{
		{"GTX 680"},
		{"GTX 285", "GTX 480", "GTX 680"},
		{"GTX 285", "GTX 460", "GTX 480", "GTX 680"},
	} {
		var want []byte
		for _, shards := range []int{1, 3} {
			s, err := New(WithBoards(boards...), WithWorkers(2), tightFleet(shards))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Fleet(context.Background(), []*workloads.Benchmark{bench})
			if err != nil {
				t.Fatal(err)
			}
			prog := s.Progress()
			if prog.Done != rep.Cells || prog.Planned != rep.Cells {
				t.Errorf("%v shards=%d: progress done=%d planned=%d, report cells=%d",
					boards, shards, prog.Done, prog.Planned, rep.Cells)
			}
			shardProg, ok := s.FleetProgress()
			if !ok || len(shardProg) != shards {
				t.Fatalf("%v shards=%d: FleetProgress = %v, %v", boards, shards, shardProg, ok)
			}
			var cells, planned int64
			for _, sp := range shardProg {
				cells += sp.CellsDone
				planned += sp.CellsPlanned
				if sp.DevicesDone != sp.DevicesPlanned {
					t.Errorf("%v shards=%d: shard %d finished %d devices of %d planned",
						boards, shards, sp.Shard, sp.DevicesDone, sp.DevicesPlanned)
				}
			}
			if cells != rep.Cells || planned != rep.Cells {
				t.Errorf("%v shards=%d: shard cells done %d, planned %d, report cells %d",
					boards, shards, cells, planned, rep.Cells)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%v shards=%d: session fleet report differs from shards=1", boards, shards)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A checkpointed fleet rerun at another shard count replays every
	// cell from the pooled shard journals, and the session's progress
	// counts each replay once.
	ckpt := filepath.Join(t.TempDir(), "fleet.journal")
	for _, shards := range []int{3, 1} {
		s, err := New(WithBoards("GTX 480", "GTX 680"), WithWorkers(2),
			tightFleet(shards), WithCheckpoint(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Fleet(context.Background(), []*workloads.Benchmark{bench})
		if err != nil {
			t.Fatal(err)
		}
		prog := s.Progress()
		shardProg, _ := s.FleetProgress()
		var replayed int64
		for _, sp := range shardProg {
			replayed += sp.Replayed
		}
		wantReplayed := int64(0)
		if shards == 1 {
			wantReplayed = prog.Planned
		}
		if prog.Planned != rep.Cells || prog.Done != rep.Cells ||
			prog.Replayed != wantReplayed || replayed != wantReplayed {
			t.Errorf("checkpointed shards=%d: progress %+v, shard replays %d, report cells %d, want %d replayed",
				shards, prog, replayed, rep.Cells, wantReplayed)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A classic session has no fleet progress and rejects Fleet.
	s, err := New(WithBoards("GTX 680"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.FleetProgress(); ok {
		t.Error("classic session reports fleet progress")
	}
	if _, err := s.Fleet(context.Background(), []*workloads.Benchmark{bench}); err == nil {
		t.Error("classic session accepted Fleet")
	}
}
