package daemon

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/core"
	"gpuperf/internal/fault"
	"gpuperf/internal/fleet"
	"gpuperf/internal/report"
	"gpuperf/internal/session"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// Campaign kinds.
const (
	KindSweep = "sweep" // Table IV characterization sweep (repetition cohort)
	KindModel = "model" // per-board modeling collection + unified models
	KindFleet = "fleet" // sharded fleet campaign over jittered devices
)

// Campaign states. A campaign moves pending → running → one of the
// terminal states; DELETE moves a running campaign to cancelled at its
// next cell boundary.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateCompleted = "completed"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Request bounds. They admit every documented campaign (a 10,000-device
// fleet, an N=5 repetition cohort) with room to spare, and keep a single
// POST from asking the daemon for unbounded work.
const (
	MaxFleetSize   = 100_000
	MaxRepetitions = 100
)

// maxLaunchTimeoutMS is the largest watchdog a time.Duration holds; a
// longer one would overflow into a negative timeout.
const maxLaunchTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// CampaignRequest is the POST /api/v1/campaigns body. The zero value of
// every optional field means the engine default.
type CampaignRequest struct {
	// Kind selects the campaign engine: "sweep" (default), "model" or
	// "fleet".
	Kind string `json:"kind,omitempty"`
	// Seed drives every noise and fault stream; campaigns are a pure
	// function of it (0 is a valid seed and is used as-is).
	Seed int64 `json:"seed"`
	// Boards restricts the campaign (empty: the daemon's full fleet).
	// Every named board must be in the served fleet.
	Boards []string `json:"boards,omitempty"`
	// Benchmarks restricts the workload set by name (empty: the paper's
	// Table IV set for sweeps, the modeling set for model campaigns).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Workers bounds the sweep pool; 1 is the bit-exact sequential
	// reference (0: GOMAXPROCS; negative: rejected). Output is identical
	// at any width.
	Workers int `json:"workers,omitempty"`
	// Faults is a fault-injection profile spec (empty: fault-free).
	Faults string `json:"faults,omitempty"`
	// MaxRetries / LaunchTimeoutMS tune the retry/watchdog policy
	// (0: engine defaults). Negative values, and a timeout too long for a
	// time.Duration, are rejected.
	MaxRetries      int   `json:"max_retries,omitempty"`
	LaunchTimeoutMS int64 `json:"launch_timeout_ms,omitempty"`
	// Repetitions / MinValid configure a sweep's repetition cohort and its
	// publishability floor (0: single run / all-valid). MinValid may not
	// exceed the repetitions. Model and fleet campaigns run once and take
	// neither.
	Repetitions int `json:"repetitions,omitempty"`
	MinValid    int `json:"min_valid,omitempty"`
	// NoCache is rejected: launch caching is a process-wide switch, so a
	// campaign with Cache=false would flip it under every concurrent
	// campaign.
	NoCache bool `json:"nocache,omitempty"`
	// FleetSize / Shards / JitterProfile configure "fleet" campaigns:
	// FleetSize jittered devices generated from the board set, partitioned
	// across Shards pipelines (0: 1). The report is byte-identical at any
	// shard count. Rejected for other kinds.
	FleetSize     int    `json:"fleet_size,omitempty"`
	Shards        int    `json:"shards,omitempty"`
	JitterProfile string `json:"jitter_profile,omitempty"`
}

// TriageStatus is the validity verdict summary embedded in a campaign's
// status JSON once triage has run.
type TriageStatus struct {
	Publishable bool           `json:"publishable"`
	Summary     string         `json:"summary"`
	Counts      map[string]int `json:"counts"`
}

// CampaignStatus is the status JSON for one campaign.
type CampaignStatus struct {
	ID       string           `json:"id"`
	Kind     string           `json:"kind"`
	State    string           `json:"state"`
	Request  CampaignRequest  `json:"request"`
	Progress session.Progress `json:"progress"`
	// Checkpoint is the campaign's journal path,
	// DataDir/campaign-<id>.journal. A fleet campaign writes no file
	// there: shard N journals to Checkpoint+".shardN", one file per
	// entry of Shards.
	Checkpoint string        `json:"checkpoint"`
	Error      string        `json:"error,omitempty"`
	Triage     *TriageStatus `json:"triage,omitempty"`
	// Shards is the per-shard fleet progress, fleet campaigns only.
	Shards []fleet.ShardProgress `json:"shards,omitempty"`
}

// Campaign is one submitted job: a session.Session run by a dedicated
// goroutine under a cancellable context. A finished campaign keeps only
// what its status JSON shows; its rendered report and its triage report
// stay on disk beside its journal, and /report and /triage serve them
// from there.
type Campaign struct {
	id     string
	req    CampaignRequest
	path   string // DataDir/campaign-<id>; the journal, report and triage files add an extension
	cancel context.CancelFunc
	done   chan struct{}

	mu          sync.Mutex
	state       string
	errMsg      string
	sess        *session.Session      // set while running (progress introspection)
	final       session.Progress      // last progress snapshot after the session closed
	finalShards []fleet.ShardProgress // last per-shard snapshot, fleet campaigns only
	triage      *TriageStatus         // set once the triage report is on disk
}

// Campaign file extensions under DataDir, after "campaign-<id>".
const (
	journalExt = ".journal"
	reportExt  = ".report"      // the rendered report, written before the campaign completes
	triageExt  = ".triage.json" // the triage report, sweeps only
)

// Status snapshots the campaign for its status JSON.
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CampaignStatus{
		ID:         c.id,
		Kind:       c.req.Kind,
		State:      c.state,
		Request:    c.req,
		Checkpoint: c.path + journalExt,
		Error:      c.errMsg,
	}
	if c.sess != nil {
		st.Progress, st.Shards = c.sess.ProgressShards()
	} else {
		st.Progress = c.final
		st.Shards = c.finalShards
	}
	if c.triage != nil {
		t := *c.triage
		t.Counts = maps.Clone(t.Counts)
		st.Triage = &t
	}
	return st
}

// triageStatus summarizes a finalized triage report for the status JSON.
func triageStatus(r *validity.Report) *TriageStatus {
	counts := make(map[string]int, len(r.Counts))
	for class, n := range r.Counts {
		counts[string(class)] = n
	}
	return &TriageStatus{Publishable: r.Publishable(), Summary: r.Summary(), Counts: counts}
}

// Done returns a channel closed when the campaign reaches a terminal
// state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// RequestError is a campaign submission the server rejected; the HTTP
// layer maps it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func reqErrf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// resolveBenches validates the request's benchmark names (empty: the
// kind's default set).
func resolveBenches(kind string, names []string) ([]*workloads.Benchmark, error) {
	if len(names) == 0 {
		if kind == KindModel {
			return workloads.ModelingSet(), nil
		}
		return workloads.Table4(), nil
	}
	out := make([]*workloads.Benchmark, 0, len(names))
	for _, n := range names {
		b := workloads.ByName(n)
		if b == nil {
			return nil, reqErrf("unknown benchmark %q", n)
		}
		out = append(out, b)
	}
	return out, nil
}

// Submit validates a campaign request, assigns it an ID and starts its
// runner. Rejections are *RequestError (bad request) or ErrDraining.
func (s *Server) Submit(req CampaignRequest) (*Campaign, error) {
	if req.Kind == "" {
		req.Kind = KindSweep
	}
	if req.Kind != KindSweep && req.Kind != KindModel && req.Kind != KindFleet {
		return nil, reqErrf("unknown campaign kind %q", req.Kind)
	}
	if req.NoCache {
		return nil, reqErrf("nocache campaigns are not served: launch caching is a process-wide switch that would flip under concurrent campaigns")
	}
	if req.Kind == KindFleet {
		if req.FleetSize < 1 {
			return nil, reqErrf("fleet campaigns require fleet_size ≥ 1")
		}
		if req.FleetSize > MaxFleetSize {
			return nil, reqErrf("fleet_size %d exceeds the limit of %d", req.FleetSize, MaxFleetSize)
		}
		if req.Shards < 0 {
			return nil, reqErrf("shards must be ≥ 0 (0: one shard)")
		}
		if _, err := fleet.ParseJitterProfile(req.JitterProfile); err != nil {
			return nil, reqErrf("jitter_profile: %v", err)
		}
	} else if req.FleetSize != 0 || req.Shards != 0 || req.JitterProfile != "" {
		return nil, reqErrf(`fleet_size/shards/jitter_profile require kind "fleet"`)
	}
	served := make(map[string]bool, len(s.cfg.Boards))
	for _, b := range s.cfg.Boards {
		served[b] = true
	}
	if _, err := arch.ResolveBoards(req.Boards); err != nil {
		return nil, reqErrf("%v", err)
	}
	for _, b := range req.Boards {
		if !served[b] {
			return nil, reqErrf("board %q is not in the served fleet", b)
		}
	}
	benches, err := resolveBenches(req.Kind, req.Benchmarks)
	if err != nil {
		return nil, err
	}
	var profile *fault.Profile
	if req.Faults != "" {
		profile, err = fault.ParseProfile(req.Faults)
		if err != nil {
			return nil, reqErrf("faults: %v", err)
		}
	}
	if req.Workers < 0 || req.MaxRetries < 0 || req.LaunchTimeoutMS < 0 {
		return nil, reqErrf("workers, max_retries and launch_timeout_ms must be ≥ 0 (0: the engine default)")
	}
	if req.LaunchTimeoutMS > maxLaunchTimeoutMS {
		return nil, reqErrf("launch_timeout_ms %d exceeds the limit of %d", req.LaunchTimeoutMS, maxLaunchTimeoutMS)
	}
	if req.Repetitions < 0 || req.MinValid < 0 {
		return nil, reqErrf("repetitions and min_valid must be ≥ 0")
	}
	if req.Repetitions > MaxRepetitions {
		return nil, reqErrf("repetitions %d exceeds the limit of %d", req.Repetitions, MaxRepetitions)
	}
	// Only sweeps repeat and triage: a model or fleet campaign runs once,
	// so it would silently ignore either knob.
	if req.Kind != KindSweep && (req.Repetitions > 1 || req.MinValid != 0) {
		return nil, reqErrf("%s campaigns take neither repetitions nor min_valid", req.Kind)
	}
	if runs := max(req.Repetitions, 1); req.MinValid > runs {
		return nil, reqErrf("min_valid %d exceeds the %d repetitions", req.MinValid, runs)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	id := strconv.Itoa(s.seq)
	ctx, cancel := context.WithCancel(context.Background())
	c := &Campaign{
		id:     id,
		req:    req,
		path:   filepath.Join(s.cfg.DataDir, "campaign-"+id),
		cancel: cancel,
		done:   make(chan struct{}),
		state:  StatePending,
	}
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()

	go s.run(ctx, c, profile, benches)
	return c, nil
}

// ErrDraining rejects submissions during graceful shutdown (HTTP 503).
var ErrDraining = errors.New("daemon: draining, not accepting campaigns")

// Campaign looks a campaign up by ID.
func (s *Server) Campaign(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Campaigns returns every campaign's status in submission order.
func (s *Server) Campaigns() []CampaignStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	byID := make(map[string]*Campaign, len(ids))
	for id, c := range s.campaigns {
		byID[id] = c
	}
	s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(ids))
	for _, id := range ids {
		out = append(out, byID[id].Status())
	}
	return out
}

// Cancel requests cancellation; the campaign stops at its next cell
// boundary with its journal resumable. No-op on terminal campaigns.
func (c *Campaign) Cancel() { c.cancel() }

// sessionConfig translates a validated request into the session
// configuration the runner opens. A request that names no board runs on
// the served fleet, whatever the kind. Cache is always on (see
// CampaignRequest.NoCache). The daemon's recorder and collector are
// shared across campaigns: every campaign's counters land in the one
// registry, and its tracks, which the recorder does not keep, advance
// only the virtual cursors the campaign's own jobs read. The
// per-campaign track prefix names them as a CLI run's would be named.
func (s *Server) sessionConfig(c *Campaign, profile *fault.Profile) session.Config {
	cfg := session.DefaultConfig()
	cfg.Seed = c.req.Seed
	if c.req.Workers > 0 {
		cfg.Workers = c.req.Workers
	}
	cfg.Boards = c.req.Boards
	if len(cfg.Boards) == 0 {
		cfg.Boards = s.cfg.Boards
	}
	cfg.Faults = profile
	if c.req.MaxRetries > 0 {
		cfg.MaxRetries = c.req.MaxRetries
	}
	if c.req.LaunchTimeoutMS > 0 {
		cfg.LaunchTimeout = time.Duration(c.req.LaunchTimeoutMS) * time.Millisecond
	}
	if c.req.Repetitions > 0 {
		cfg.Repetitions = c.req.Repetitions
	}
	cfg.MinValid = c.req.MinValid
	cfg.Checkpoint = c.path + journalExt
	cfg.Cache = true
	cfg.Obs = s.rec
	cfg.PowerFanout = s.col
	cfg.TrackPrefix = "campaign/" + c.id
	if c.req.Kind == KindFleet {
		cfg.FleetSize = c.req.FleetSize
		cfg.FleetShards = c.req.Shards
		cfg.FleetJitter = c.req.JitterProfile
	}
	return cfg
}

// run executes one campaign to a terminal state. ctx is cancelled by
// DELETE or by Drain; either way the session stops at a cell boundary
// and the checkpoint journal stays resumable.
func (s *Server) run(ctx context.Context, c *Campaign, profile *fault.Profile, benches []*workloads.Benchmark) {
	defer s.wg.Done()
	defer close(c.done)
	fail := func(state string, err error) {
		c.mu.Lock()
		c.state = state
		if err != nil {
			c.errMsg = err.Error()
		}
		if c.sess != nil {
			c.final, c.finalShards = c.sess.ProgressShards()
		}
		c.sess = nil
		c.mu.Unlock()
	}

	sess, err := session.Open(s.sessionConfig(c, profile))
	if err != nil {
		fail(StateFailed, err)
		return
	}
	defer sess.Close()
	c.mu.Lock()
	c.state = StateRunning
	c.sess = sess
	c.mu.Unlock()

	var rendered string
	var trep *validity.Report
	switch c.req.Kind {
	case KindModel:
		rendered, err = runModel(ctx, sess, benches)
	case KindFleet:
		stopPoll := s.pollFleet(sess)
		rendered, err = runFleet(ctx, sess, benches)
		stopPoll()
	default:
		rendered, trep, err = runSweep(ctx, sess, benches)
	}
	if err != nil {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			fail(StateCancelled, err)
		} else {
			fail(StateFailed, err)
		}
		return
	}
	// Both files are on disk before the campaign reads as completed, so
	// /report and /triage never see a completed campaign without them.
	var tst *TriageStatus
	if trep != nil {
		if werr := trep.WriteFile(c.path + triageExt); werr != nil {
			fail(StateFailed, werr)
			return
		}
		tst = triageStatus(trep)
	}
	if werr := os.WriteFile(c.path+reportExt, []byte(rendered), 0o644); werr != nil {
		fail(StateFailed, fmt.Errorf("daemon: %w", werr))
		return
	}
	c.mu.Lock()
	c.state = StateCompleted
	c.triage = tst
	c.final, c.finalShards = sess.ProgressShards() // stays visible after the session closes
	c.sess = nil
	c.mu.Unlock()
}

// runFleet is the fleet campaign path: the session's sharded fleet sweep
// rendered as the population summary — byte-identical to the same
// campaign run through cmd/characterize -fleet-size at the same seed.
func runFleet(ctx context.Context, sess *session.Session, benches []*workloads.Benchmark) (string, error) {
	rep, err := sess.Fleet(ctx, benches)
	if err != nil {
		return "", err
	}
	return report.FleetSummary(rep), nil
}

// pollFleet feeds the gpuperf_fleet_* families from the session's shard
// tracker while a fleet campaign runs. The returned stop flushes a final
// snapshot and waits for the goroutine, so terminal metric values are
// consistent with the campaign's final status JSON.
func (s *Server) pollFleet(sess *session.Session) (stop func()) {
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		prevCells := make(map[int]int64)
		var prevRows int64
		update := func() {
			sp, ok := sess.FleetProgress()
			if !ok {
				return
			}
			for _, p := range sp {
				if d := p.CellsDone - prevCells[p.Shard]; d > 0 {
					s.fleetM.shardCells.With(strconv.Itoa(p.Shard)).Add(d)
					prevCells[p.Shard] = p.CellsDone
				}
			}
			total, lag := fleet.Sum(sp)
			s.fleetM.devicesPlanned.Set(total.DevicesPlanned)
			s.fleetM.devicesDone.Set(total.DevicesDone)
			s.fleetM.shardLag.Set(lag)
			if d := total.RowsFolded - prevRows; d > 0 {
				s.fleetM.rowsFolded.Add(d)
				prevRows = total.RowsFolded
			}
		}
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				update()
				return
			case <-t.C:
				update()
			}
		}
	}()
	return func() {
		close(stopCh)
		<-done
	}
}

// runSweep is the Table IV path, mirroring cmd/characterize -table 4:
// a repetition cohort, triage over the cohort, and the table rendered
// from repetition 0 — so the journal and report are byte-identical to
// the CLI run at the same seed and configuration. Triage always runs
// (the status JSON carries its verdicts), but it only annotates the
// rendered table when the CLI would have engaged it too.
func runSweep(ctx context.Context, sess *session.Session, benches []*workloads.Benchmark) (string, *validity.Report, error) {
	repsRes, err := sess.Repeat(ctx, benches)
	if err != nil {
		return "", nil, err
	}
	tr := sess.NewTriage()
	if err := characterize.ObserveTriageReps(tr, "table4", repsRes); err != nil {
		return "", nil, err
	}
	var renderTr *validity.Triage
	if sess.TriageOn() {
		renderTr = tr
	}
	tbl := report.Table4(sess.Boards(), repsRes[0], renderTr)
	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString("\n")
	for _, d := range characterize.Degradations(repsRes[0]) {
		b.WriteString("degraded: " + d.Line + "\n")
	}
	return b.String(), tr.Finalize(), nil
}

// runModel is the modeling path: one dataset collection and one power +
// one time model per board, summarized as text.
func runModel(ctx context.Context, sess *session.Session, benches []*workloads.Benchmark) (string, error) {
	var b strings.Builder
	for _, spec := range sess.Boards() {
		ds, err := sess.Collect(ctx, spec.Name, benches)
		if err != nil {
			return "", err
		}
		for _, kind := range []core.Kind{core.Power, core.Time} {
			m, err := sess.Model(ctx, ds, kind)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%s %s: adj-R² %.4f, %d variables: %s\n",
				spec.Name, kind, m.AdjR2(), len(m.Variables()),
				strings.Join(m.Variables(), ", "))
		}
	}
	return b.String(), nil
}

// ReportPath returns the file holding the campaign's rendered report,
// once the campaign has completed.
func (c *Campaign) ReportPath() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.path + reportExt, c.state == StateCompleted
}

// TriagePath returns the file holding the campaign's triage report, once
// one has been written: a completed sweep's.
func (c *Campaign) TriagePath() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.path + triageExt, c.triage != nil
}
