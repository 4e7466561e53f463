package fleet

import "sync/atomic"

// ShardProgress is one shard's progress snapshot, served by gpuperfd in
// campaign status JSON and exported as gpuperf_fleet_* metrics.
type ShardProgress struct {
	Shard          int   `json:"shard"`
	DevicesPlanned int64 `json:"devices_planned"`
	DevicesDone    int64 `json:"devices_done"`
	CellsPlanned   int64 `json:"cells_planned"`
	CellsDone      int64 `json:"cells_done"`
	Replayed       int64 `json:"replayed"`
	Quarantined    int64 `json:"quarantined"`
	RowsFolded     int64 `json:"rows_folded"`
}

type shardCounters struct {
	devicesPlanned atomic.Int64
	devicesDone    atomic.Int64
	cellsPlanned   atomic.Int64
	cellsDone      atomic.Int64
	replayed       atomic.Int64
	quarantined    atomic.Int64
	rowsFolded     atomic.Int64
}

// Tracker carries per-shard progress counters. All methods are safe for
// concurrent use; the orchestrator's sinks feed it and pollers (HTTP
// status, metrics) snapshot it.
type Tracker struct {
	shards []shardCounters
}

// NewTracker sizes a tracker for the given shard count.
func NewTracker(shards int) *Tracker {
	if shards < 1 {
		shards = 1
	}
	return &Tracker{shards: make([]shardCounters, shards)}
}

// Shards reports the tracked shard count.
func (t *Tracker) Shards() int { return len(t.shards) }

// Snapshot returns every shard's current progress, in shard order.
func (t *Tracker) Snapshot() []ShardProgress {
	out := make([]ShardProgress, len(t.shards))
	for i := range t.shards {
		c := &t.shards[i]
		out[i] = ShardProgress{
			Shard:          i,
			DevicesPlanned: c.devicesPlanned.Load(),
			DevicesDone:    c.devicesDone.Load(),
			CellsPlanned:   c.cellsPlanned.Load(),
			CellsDone:      c.cellsDone.Load(),
			Replayed:       c.replayed.Load(),
			Quarantined:    c.quarantined.Load(),
			RowsFolded:     c.rowsFolded.Load(),
		}
	}
	return out
}

// Sum folds a snapshot into fleet-wide counters (Shard is zero in the
// total) plus the shard lag: max − min cells done across shards, how far
// the slowest shard trails the fastest.
func Sum(snap []ShardProgress) (total ShardProgress, lag int64) {
	var minC, maxC int64
	for i, p := range snap {
		total.DevicesPlanned += p.DevicesPlanned
		total.DevicesDone += p.DevicesDone
		total.CellsPlanned += p.CellsPlanned
		total.CellsDone += p.CellsDone
		total.Replayed += p.Replayed
		total.Quarantined += p.Quarantined
		total.RowsFolded += p.RowsFolded
		if i == 0 || p.CellsDone < minC {
			minC = p.CellsDone
		}
		if i == 0 || p.CellsDone > maxC {
			maxC = p.CellsDone
		}
	}
	return total, maxC - minC
}
