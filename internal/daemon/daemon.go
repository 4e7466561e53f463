// Package daemon is the serving layer: a long-running gpuperfd process
// owns a fleet of simulated devices and a shared metrics registry, and
// exposes the campaign engine over HTTP (launch payloads stay in the
// caches of the devices each campaign boots) —
//
//	GET    /metrics                     live Prometheus text exposition
//	GET    /healthz                     liveness
//	GET    /readyz                      readiness (503 while draining)
//	POST   /api/v1/campaigns            submit a sweep/model campaign
//	GET    /api/v1/campaigns            list campaign statuses
//	GET    /api/v1/campaigns/{id}       one campaign's status JSON
//	DELETE /api/v1/campaigns/{id}       cancel (journal stays resumable)
//	GET    /api/v1/campaigns/{id}/report rendered report (completed only, from DataDir)
//	GET    /api/v1/campaigns/{id}/triage machine-readable triage report (from DataDir)
//	GET    /api/v1/power                per-device recent power, JSON
//
// Scrape-safety contract: /metrics renders a Registry.Snapshot — a copy
// of every series' values beside the exposition order the registry keeps
// (rebuilt as a new value under the registry lock only after a series is
// added, never changed in place) — so scrapes run concurrently with
// campaigns registering series, and the live text is byte-identical to
// what the artifact writer (obs.Recorder.WriteMetrics) would emit for the
// same state. HTTP handlers never register metric handles; every family
// is created in New (collector included), which is the discipline
// gpulint's obscheck analyzer enforces.
//
// Campaigns are ordinary session.Sessions: each gets its own checkpoint
// journal under DataDir (campaign-<id>.journal, the status JSON's
// "checkpoint"; a fleet campaign instead writes one journal per shard,
// campaign-<id>.journal.shard0 … .shard<S-1>) and a context cancelled by
// DELETE or by Drain, so a SIGTERM shutdown stops every in-flight
// campaign at a cell boundary with its journal resumable — resubmitting
// the same campaign replays the completed cells. Artifacts are byte-identical to the same
// campaign run through cmd/characterize at the same seed: the daemon
// adds live telemetry (the collector fan-out), never noise.
//
// A daemon serves campaigns for as long as it runs, so nothing a
// campaign measured stays in memory after it. The recorder keeps no
// tracks and no trace events (obs.NewTrackFree): campaign counters land
// in the registry, and each sweep job's track lives only as long as the
// job. A finished campaign keeps its status alone, triage summary
// included; its rendered report (campaign-<id>.report) and triage report
// (campaign-<id>.triage.json) are written beside its journal before it
// reads as completed, and /report and /triage serve those files.
package daemon

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/daemon/collector"
	"gpuperf/internal/obs"
)

// Config configures one daemon instance.
type Config struct {
	// Boards is the served fleet (empty: the paper's four boards).
	// Campaign requests may restrict to a subset; boards outside the
	// fleet are rejected at submission.
	Boards []string
	// DataDir receives each campaign's checkpoint journal, rendered
	// report and triage report. Required.
	DataDir string
	// Retention bounds the collector's per-(device, scope) sample
	// history (≤ 0: collector.DefaultRetention).
	Retention int
	// SampleInterval is the collector's idle-heartbeat period (≤ 0: 1s).
	SampleInterval time.Duration
}

// fleetMetrics is the gpuperf_fleet_* exposition: live progress of the
// daemon's fleet campaigns, fed by each fleet runner's poller. Gauges
// reflect the most recently updated fleet campaign; the counters
// accumulate across campaigns.
type fleetMetrics struct {
	devicesPlanned *obs.Gauge
	devicesDone    *obs.Gauge
	shardLag       *obs.Gauge
	rowsFolded     *obs.Counter
	shardCells     *obs.CounterVec
}

// Server is one running daemon: the shared recorder, the telemetry
// collector and the table of campaign statuses. Build with New, shut
// down with Drain. Safe for concurrent use by the HTTP stack.
type Server struct {
	cfg    Config
	rec    *obs.Recorder
	col    *collector.Collector
	fleetM *fleetMetrics

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // campaign IDs in submission order
	seq       int
	draining  bool

	wg      sync.WaitGroup // in-flight campaign runners
	colOnce sync.Once      // collector heartbeat stops exactly once
}

// New validates the fleet, boots the collector (registering every live
// metric family), and starts the idle heartbeat. The server is ready to
// serve as soon as New returns.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("daemon: DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	if len(cfg.Boards) == 0 {
		for _, spec := range arch.AllBoards() {
			cfg.Boards = append(cfg.Boards, spec.Name)
		}
	}
	rec := obs.NewTrackFree()
	col, err := collector.New(rec.Metrics(), cfg.Boards, cfg.Retention)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	m := rec.Metrics()
	s := &Server{
		cfg: cfg,
		rec: rec,
		col: col,
		fleetM: &fleetMetrics{
			devicesPlanned: m.Gauge("gpuperf_fleet_devices_planned",
				"devices the current fleet campaign set out to sweep"),
			devicesDone: m.Gauge("gpuperf_fleet_devices_done",
				"devices the current fleet campaign has completed"),
			shardLag: m.Gauge("gpuperf_fleet_shard_lag_cells",
				"cells-done gap between the fastest and slowest fleet shard"),
			rowsFolded: m.Counter("gpuperf_fleet_rows_folded_total",
				"rows folded into fleet aggregates across all fleet campaigns"),
			shardCells: m.CounterVec("gpuperf_fleet_shard_cells_total",
				"fleet sweep cells resolved, by shard", "shard"),
		},
		campaigns: make(map[string]*Campaign),
	}
	interval := cfg.SampleInterval
	if interval <= 0 {
		interval = time.Second
	}
	col.Start(interval)
	return s, nil
}

// Recorder returns the daemon's shared observability recorder. Every
// campaign's counters land in its registry, which /metrics renders. It
// keeps no tracks and no events (obs.NewTrackFree): nothing the daemon
// serves reads them, and a recorder that kept them would grow with every
// campaign for as long as the daemon runs.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Collector returns the live power-telemetry collector.
func (s *Server) Collector() *collector.Collector { return s.col }

// Ready reports whether the server accepts new campaigns (false once
// draining begins).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.draining
}

// Drain performs the graceful shutdown: stop accepting campaigns, cancel
// every in-flight one (each stops at a cell boundary, its checkpoint
// journal resumable), wait for the runners — bounded by ctx — then stop
// the collector heartbeat. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for _, c := range s.campaigns {
		c.cancel()
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func(done chan<- struct{}) {
		s.wg.Wait()
		close(done)
	}(finished)
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = fmt.Errorf("daemon: drain: %w", context.Cause(ctx))
	}
	s.colOnce.Do(s.col.Stop)
	return err
}
