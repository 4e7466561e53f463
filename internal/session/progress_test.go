package session

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"gpuperf/internal/arch"
	"gpuperf/internal/clock"
	"gpuperf/internal/obs"
	"gpuperf/internal/power"
	"gpuperf/internal/workloads"
)

// sinkFanout is a concurrency-safe PowerFanout capturing per-device
// sample counts and scope sanity.
type sinkFanout struct {
	mu      sync.Mutex
	samples map[string]int
	bad     int // samples with a non-positive domain
}

func (f *sinkFanout) SamplePower(device string, scopes power.Breakdown) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.samples == nil {
		f.samples = map[string]int{}
	}
	f.samples[device]++
	if scopes.GPU <= 0 || scopes.Memory <= 0 {
		f.bad++
	}
}

// TestProgressTracksSweepCells: Progress() counts every planned cell as
// done once the sweep completes, and a resumed campaign reports the
// journal-replayed cells.
func TestProgressTracksSweepCells(t *testing.T) {
	benches := workloads.Table4()[:2]
	boards := []string{"GTX 480"}
	pairs := len(clock.ValidPairs(arch.BoardByName("GTX 480")))
	want := int64(pairs * len(benches))
	ckpt := filepath.Join(t.TempDir(), "ckpt.journal")

	s := open(t, WithBoards(boards...), WithWorkers(2), WithCheckpoint(ckpt))
	if p := s.Progress(); p != (Progress{}) {
		t.Fatalf("fresh session progress = %+v, want zeros", p)
	}
	if _, err := s.Sweep(context.Background(), benches); err != nil {
		t.Fatal(err)
	}
	p := s.Progress()
	if p.Planned != want || p.Done != want {
		t.Fatalf("progress = %+v, want planned=done=%d", p, want)
	}
	if p.Replayed != 0 || p.Quarantined != 0 {
		t.Fatalf("fault-free fresh run progress = %+v", p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: every cell comes from the journal and counts as replayed.
	s2 := open(t, WithBoards(boards...), WithCheckpoint(ckpt))
	if _, err := s2.Sweep(context.Background(), benches); err != nil {
		t.Fatal(err)
	}
	p2 := s2.Progress()
	if p2.Done != want || p2.Replayed != want {
		t.Fatalf("resumed progress = %+v, want done=replayed=%d", p2, want)
	}
}

// TestSessionPowerFanoutReachesDevices: a configured PowerFanout
// receives scope-tagged samples from every board of a sweep, without
// perturbing results (byte-identity is pinned elsewhere; here we pin the
// plumbing and tag correctness).
func TestSessionPowerFanoutReachesDevices(t *testing.T) {
	benches := workloads.Table4()[:1]
	sink := &sinkFanout{}
	s := open(t, WithBoards("GTX 480", "GTX 680"), WithWorkers(2),
		WithObs(obs.New()), func(c *Config) { c.PowerFanout, c.TrackPrefix = sink, "campaign/1" })
	res, err := s.Sweep(context.Background(), benches)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d boards", len(res))
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, b := range []string{"GTX 480", "GTX 680"} {
		if sink.samples[b] == 0 {
			t.Errorf("fanout saw no samples from %s", b)
		}
	}
	if sink.bad != 0 {
		t.Errorf("%d samples had a non-positive power domain", sink.bad)
	}
}
