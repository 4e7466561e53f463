// Package session is the campaign engine's front door: one Session owns
// the full measurement-stack construction — board resolution, the fault
// retry policy, the checkpoint journal, the launch-cache mode, the
// observability recorder — and exposes the context-aware campaign
// methods (Sweep, Repeat, Collect, Model, Fleet) every front end drives.
//
// The CLI commands build a Session from the campaign flags they
// register (internal/cliflags), the root package re-exports it as
// gpuperf.Session, and gpuperfd holds many of them, one per concurrent
// campaign. The paper reproduction (internal/reproduce) is a client: it
// renders its report from an open Session.
//
// Construction graph and ownership:
//
//	Config ──► New ──► Session
//	                    ├── boards    resolved arch.Specs (validated once)
//	                    ├── res       *fault.Resilience — campaign, retry
//	                    │             budget, watchdog, obs hook (nil when
//	                    │             no faults/checkpoint/obs configured)
//	                    ├── journal   *characterize.Journal — opened from
//	                    │             Config.Checkpoint, closed by Close
//	                    └── cache     launch-cache mode, pushed at New and
//	                                  restored by Close
//
// Everything a Session builds it also owns: Close releases the journal
// and the cache toggle exactly once, and the campaign methods and the
// session's clients only borrow. The journal is the session's alone —
// Journal exposes it for reading, and nothing else opens the checkpoint
// file.
//
// Cancellation contract: every campaign method takes a context and
// checks it at cell boundaries — one (board, benchmark, pair)
// measurement for sweeps, one profiling/observation pass for collects,
// one forward-selection step for training. A single CancelFunc therefore
// aborts a full multi-board campaign within one in-flight cell per
// worker; the error wraps context.Cause(ctx), and a configured journal
// is left resumable — rerunning the same Session configuration replays
// the completed cells and yields byte-identical results.
package session

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/clock"
	"gpuperf/internal/core"
	"gpuperf/internal/driver"
	"gpuperf/internal/fault"
	"gpuperf/internal/fleet"
	"gpuperf/internal/obs"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// Config is the single knob set every campaign front end shares. The
// zero value is not ready to use — build one with DefaultConfig (or New,
// which applies the functional options on top of the defaults).
type Config struct {
	// Seed drives every noise and fault stream; campaigns are a pure
	// function of it.
	Seed int64
	// Workers bounds the sweep, collect and modeling-fit pools (0 or
	// negative means GOMAXPROCS); 1 is the bit-exact sequential reference
	// and the output is identical at any width.
	Workers int
	// Boards restricts the campaign (empty: the paper's four boards).
	Boards []string
	// MaxVars caps the models' explanatory variables (0: the paper's 10).
	MaxVars int

	// Faults, when non-nil, runs campaigns under fault injection with
	// MaxRetries/LaunchTimeout as the retry/watchdog policy.
	Faults        *fault.Profile
	MaxRetries    int
	LaunchTimeout time.Duration
	// Checkpoint, when set, journals completed sweep cells to this path
	// and resumes from it.
	Checkpoint string
	// Obs, when non-nil, records spans, events and metrics for the whole
	// session.
	Obs *obs.Recorder
	// Cache enables launch memoization (DefaultConfig turns it on; false
	// is the uncached reference mode — output is identical either way).
	Cache bool
	// ArtifactsDir, when set, receives the reproduction's per-table/figure
	// files.
	ArtifactsDir string

	// Repetitions is the campaign's repetition-cohort size (0 or 1: the
	// classic single run). Repetition 0 is bit-identical to a single run;
	// later repetitions draw independent noise and fault streams, and the
	// triage engine gates publishability on cross-repetition agreement.
	Repetitions int
	// MinValid is the publishability floor: a cell needs at least this
	// many valid repetitions (0: all of them).
	MinValid int
	// TriageOut, when set, writes the machine-readable triage report
	// (reports/baseline.json) to this path after a reproduction.
	TriageOut string
	// CodeVersion overrides the cohort's code-version stamp; empty
	// resolves the running binary's VCS revision (or "unknown").
	CodeVersion string

	// PowerFanout, when non-nil, receives live scope-tagged power samples
	// from every metered run of the session's campaigns (see
	// driver.PowerFanout) — the hook a serving daemon's collector uses.
	// Live-only: it never changes measurements or artifacts.
	PowerFanout driver.PowerFanout
	// TrackPrefix namespaces the session's sweep track names (e.g.
	// "campaign/3"), so many sessions can share one recorder without
	// track collisions. Empty keeps the engine default ("sweep").
	TrackPrefix string

	// FleetSize, when ≥ 1, turns the session into a fleet campaign: the
	// Boards become the base population and the Fleet method sweeps
	// FleetSize jittered devices. 0 is the classic four-board session.
	FleetSize int
	// FleetShards partitions fleet devices across shard pipelines, each
	// with its own checkpoint journal (<Checkpoint>.shard<N>). The report
	// does not depend on it; 0 means 1.
	FleetShards int
	// FleetJitter selects the per-device spread: a preset name or a
	// "key:fraction" list (see fleet.ParseJitterProfile). Empty is the
	// default profile.
	FleetJitter string
}

// DefaultConfig mirrors the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Seed:          42,
		Workers:       runtime.GOMAXPROCS(0),
		MaxVars:       core.MaxVariables,
		MaxRetries:    fault.DefaultMaxRetries,
		LaunchTimeout: fault.DefaultLaunchTimeout,
		Cache:         true,
	}
}

// Option mutates a Config during New.
type Option func(*Config)

// WithSeed sets the campaign seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithWorkers bounds the worker pools; 1 is the bit-exact sequential
// reference (results are identical at any width).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithBoards restricts the session to the named boards.
func WithBoards(names ...string) Option {
	return func(c *Config) { c.Boards = append([]string(nil), names...) }
}

// WithMaxVars caps the models' explanatory variables.
func WithMaxVars(n int) Option { return func(c *Config) { c.MaxVars = n } }

// WithFaults runs the session's campaigns under a fault-injection
// profile.
func WithFaults(p *fault.Profile) Option { return func(c *Config) { c.Faults = p } }

// WithRetryPolicy sets the transient-fault retry budget and the per-run
// watchdog deadline.
func WithRetryPolicy(maxRetries int, launchTimeout time.Duration) Option {
	return func(c *Config) {
		c.MaxRetries = maxRetries
		c.LaunchTimeout = launchTimeout
	}
}

// WithCheckpoint journals completed sweep cells to path and resumes from
// it.
func WithCheckpoint(path string) Option { return func(c *Config) { c.Checkpoint = path } }

// WithObs attaches an observability recorder to the session.
func WithObs(rec *obs.Recorder) Option { return func(c *Config) { c.Obs = rec } }

// WithCache toggles launch memoization (false is the uncached reference
// mode; output is identical either way).
func WithCache(enabled bool) Option { return func(c *Config) { c.Cache = enabled } }

// WithArtifactsDir routes the reproduction's per-table/figure files to
// dir.
func WithArtifactsDir(dir string) Option { return func(c *Config) { c.ArtifactsDir = dir } }

// Session owns one campaign stack. Build with New, release with Close.
// A Session is safe for concurrent campaign calls — the engines share no
// mutable state beyond the session's own resilience policy and journal,
// which are designed for pool-wide use.
type Session struct {
	cfg     Config
	boards  []*arch.Spec
	cohort  validity.Cohort
	res     *fault.Resilience
	journal *characterize.Journal

	// Fleet mode (cfg.FleetSize ≥ 1): the parsed jitter profile and the
	// per-shard progress tracker, sized at Open so a serving layer can
	// poll shard progress while Fleet runs.
	fleetJitter  fleet.JitterProfile
	fleetTracker *fleet.Tracker

	restoreCache func()
	closed       bool

	// Progress introspection (see Progress): planned is accumulated when a
	// classic sweep starts, the others by the sweeps' row sink (countCell).
	// Atomics so a serving layer can poll them while the campaign runs.
	// Fleet cells are counted by fleetTracker instead.
	planned     atomic.Int64
	done        atomic.Int64
	replayed    atomic.Int64
	quarantined atomic.Int64
}

// Progress is a point-in-time view of the session's sweep progress,
// readable concurrently with a running campaign.
type Progress struct {
	// Planned is the total number of (board, benchmark, pair, repetition)
	// cells the session's sweeps set out to measure.
	Planned int64 `json:"planned"`
	// Done counts resolved cells — measured, replayed or quarantined.
	Done int64 `json:"done"`
	// Replayed counts cells satisfied from the checkpoint journal.
	Replayed int64 `json:"replayed"`
	// Quarantined counts cells that exhausted their retry budget.
	Quarantined int64 `json:"quarantined"`
}

// Progress returns the session's current sweep progress: its classic
// sweeps' cells plus, in a fleet session, the fleet's cells summed over
// its shards. Safe to call from any goroutine while campaigns run.
func (s *Session) Progress() Progress {
	p, _ := s.ProgressShards()
	return p
}

// ProgressShards returns Progress together with, in a fleet session, the
// per-shard progress it sums, both from one tracker snapshot: while a
// fleet runs, the fleet's part of the total always equals the sum of the
// shards returned beside it. shards is nil in a classic session. Safe to
// call from any goroutine while campaigns run.
func (s *Session) ProgressShards() (Progress, []fleet.ShardProgress) {
	p := Progress{
		Planned:     s.planned.Load(),
		Done:        s.done.Load(),
		Replayed:    s.replayed.Load(),
		Quarantined: s.quarantined.Load(),
	}
	if s.fleetTracker == nil {
		return p, nil
	}
	shards := s.fleetTracker.Snapshot()
	f, _ := fleet.Sum(shards)
	p.Planned += f.CellsPlanned
	p.Done += f.CellsDone
	p.Replayed += f.Replayed
	p.Quarantined += f.Quarantined
	return p, shards
}

// countCell is the sweeps' row sink feeding the progress counters.
func (s *Session) countCell(r characterize.Row) {
	s.done.Add(1)
	if r.Replayed {
		s.replayed.Add(1)
	}
	if r.Result.Quarantined {
		s.quarantined.Add(1)
	}
}

// plan accounts a sweep's cell total before it starts: every valid pair
// of every board, per benchmark, per repetition.
func (s *Session) plan(boardNames []string, nBenches, reps int) {
	if reps < 1 {
		reps = 1
	}
	var cells int64
	for _, name := range boardNames {
		if spec := arch.BoardByName(name); spec != nil {
			cells += int64(len(clock.ValidPairs(spec)))
		}
	}
	s.planned.Add(cells * int64(nBenches) * int64(reps))
}

// New validates the options, resolves the board set, builds the fault
// harness and journal, and pins the launch-cache mode. Callers must
// Close the session to release the journal and restore the cache toggle.
func New(options ...Option) (*Session, error) {
	cfg := DefaultConfig()
	for _, opt := range options {
		opt(&cfg)
	}
	return Open(cfg)
}

// Open is New for callers that already hold a Config (the cliflags
// translation path).
func Open(cfg Config) (*Session, error) {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxVars <= 0 {
		cfg.MaxVars = core.MaxVariables
	}
	if err := fault.ValidateHarness(cfg.Workers, cfg.MaxRetries, cfg.LaunchTimeout); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	boards, err := arch.ResolveBoards(cfg.Boards)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if cfg.Repetitions < 1 {
		cfg.Repetitions = 1
	}
	if cfg.MinValid < 0 || cfg.MinValid > cfg.Repetitions {
		return nil, fmt.Errorf("session: min-valid %d outside [0, repetitions=%d]", cfg.MinValid, cfg.Repetitions)
	}
	if cfg.CodeVersion == "" {
		cfg.CodeVersion = validity.ResolveCodeVersion()
	}
	s := &Session{cfg: cfg, boards: boards}
	if cfg.FleetSize < 0 {
		return nil, fmt.Errorf("session: fleet size %d < 0", cfg.FleetSize)
	}
	if cfg.FleetSize == 0 && (cfg.FleetShards > 1 || cfg.FleetJitter != "") {
		return nil, fmt.Errorf("session: fleet shards/jitter configured without a fleet size")
	}
	if cfg.FleetSize >= 1 {
		jit, err := fleet.ParseJitterProfile(cfg.FleetJitter)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		s.fleetJitter = jit
		s.fleetTracker = fleet.NewTracker(fleet.ClampShards(cfg.FleetShards, cfg.FleetSize))
	}
	spec := ""
	if cfg.Faults != nil {
		spec = cfg.Faults.String()
	}
	s.cohort = validity.Cohort{
		Seed:        cfg.Seed,
		Boards:      s.BoardNames(),
		Profile:     spec,
		CodeVersion: cfg.CodeVersion,
	}

	// The harness engages when a fault profile, a checkpoint or a recorder
	// is configured; a checkpoint or recorder without faults runs a
	// fault-free campaign through the same engine configuration.
	if cfg.Faults != nil || cfg.Checkpoint != "" || cfg.Obs != nil {
		s.res = &fault.Resilience{
			Campaign:      &fault.Campaign{Profile: cfg.Faults, Seed: cfg.Seed},
			MaxRetries:    cfg.MaxRetries,
			LaunchTimeout: cfg.LaunchTimeout,
			Obs:           cfg.Obs,
		}
		s.res.Observe()
	}
	if cfg.Checkpoint != "" && cfg.FleetSize < 1 {
		// The journal is bound to the full cohort: resuming under any other
		// configuration is a hard *characterize.CohortMismatchError, with
		// the journal preserved on disk. Fleet campaigns skip this: the
		// orchestrator owns per-shard journals under the fleet cohort.
		j, err := characterize.OpenJournalCohort(cfg.Checkpoint, characterize.JournalConfig{Cohort: s.cohort})
		if err != nil {
			return nil, err
		}
		s.journal = j
	}
	if cfg.Obs != nil {
		// Stamp the cohort identity into the metrics exposition so every
		// recorded artifact names the campaign it measured.
		cfg.Obs.Metrics().Gauge("campaign_cohort_info",
			"campaign cohort identity (value is always 1; identity is in the labels)",
			obs.L("cohort", s.cohort.Hash()),
			obs.L("code_version", cfg.CodeVersion)).Set(1)
	}
	s.restoreCache = driver.PushLaunchCachingEnabled(cfg.Cache)
	return s, nil
}

// Close releases what New built: the checkpoint journal and the pinned
// launch-cache mode. Safe to call more than once.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.journal != nil {
		err = s.journal.Close()
	}
	if s.restoreCache != nil {
		s.restoreCache()
	}
	return err
}

// Config returns a copy of the session's resolved configuration.
func (s *Session) Config() Config { return s.cfg }

// Boards returns the session's resolved board specs, in campaign order.
func (s *Session) Boards() []*arch.Spec {
	return append([]*arch.Spec(nil), s.boards...)
}

// BoardNames returns the resolved board names, in campaign order.
func (s *Session) BoardNames() []string {
	names := make([]string, len(s.boards))
	for i, spec := range s.boards {
		names[i] = spec.Name
	}
	return names
}

// Journal exposes the session's checkpoint journal (nil when no
// checkpoint is configured) — owned by the session; do not Close it.
func (s *Session) Journal() *characterize.Journal { return s.journal }

// Cohort returns the session's campaign identity — the configuration
// every journal header, triage report and metrics exposition is bound to.
func (s *Session) Cohort() validity.Cohort { return s.cohort }

// NewTriage builds a triage engine bound to the session's cohort and
// repetition policy. Each campaign should finalize exactly one triage.
func (s *Session) NewTriage() *validity.Triage {
	return validity.NewTriage(s.cohort, s.cfg.Repetitions, s.cfg.MinValid, 0)
}

// TriageOn reports whether the session's campaigns engage the triage
// engine: a triage report was asked for, or the repetition policy has
// something to judge. When it is off, a campaign's output carries no
// triage verdicts.
func (s *Session) TriageOn() bool {
	return s.cfg.TriageOut != "" || s.cfg.Repetitions > 1 || s.cfg.MinValid > 0
}

// sweepOptions assembles the engine options shared by every sweep. An
// empty trackPrefix falls back to the session's configured prefix.
func (s *Session) sweepOptions(trackPrefix string) characterize.SweepOptions {
	if trackPrefix == "" {
		trackPrefix = s.cfg.TrackPrefix
	}
	return characterize.SweepOptions{
		Seed:        s.cfg.Seed,
		Workers:     s.cfg.Workers,
		Res:         s.res,
		Journal:     s.journal,
		Obs:         s.cfg.Obs,
		TrackPrefix: trackPrefix,
		Fanout:      s.cfg.PowerFanout,
		Sink:        characterize.SinkFuncs{Row: s.countCell},
	}
}

// Sweep runs the benches over every session board through the unified
// engine — one shared pool over (board, benchmark) jobs, results indexed
// [board][benchmark]. Cancelling ctx aborts within one cell per worker.
//
//gpulint:deterministic
func (s *Session) Sweep(ctx context.Context, benches []*workloads.Benchmark) (map[string][]*characterize.BenchResult, error) {
	s.plan(s.BoardNames(), len(benches), 1)
	return characterize.Sweep(ctx, s.BoardNames(), benches, s.sweepOptions(""))
}

// Repeat runs the session's repetition cohort: Config.Repetitions sweeps
// of the benches over every session board, one result map per
// repetition. Repetition 0 is bit-identical to Sweep; later repetitions
// draw independent noise and fault streams on freshly booted devices,
// each of which compiles its kernels once and evaluates them at every
// pair before metering.
// Feed the result to a triage engine with characterize.ObserveTriageReps.
func (s *Session) Repeat(ctx context.Context, benches []*workloads.Benchmark) ([]map[string][]*characterize.BenchResult, error) {
	return s.RepeatUnder(ctx, "", benches)
}

// RepeatUnder is Repeat with the sweeps' tracks named under trackPrefix
// instead of Config.TrackPrefix (empty keeps the session's), for a
// campaign that lays out one track group per phase.
func (s *Session) RepeatUnder(ctx context.Context, trackPrefix string, benches []*workloads.Benchmark) ([]map[string][]*characterize.BenchResult, error) {
	s.plan(s.BoardNames(), len(benches), s.cfg.Repetitions)
	return characterize.SweepReps(ctx, s.BoardNames(), benches, s.sweepOptions(trackPrefix), s.cfg.Repetitions)
}

// Fleet runs the session's fleet campaign: Config.FleetSize jittered
// devices over the session boards, partitioned across
// Config.FleetShards shard pipelines and folded into one associative
// aggregate. The report is byte-identical at a fixed seed for any shard
// and worker count. Requires Config.FleetSize ≥ 1.
//
//gpulint:deterministic
func (s *Session) Fleet(ctx context.Context, benches []*workloads.Benchmark) (*fleet.Report, error) {
	if s.cfg.FleetSize < 1 {
		return nil, fmt.Errorf("session: Fleet called without a fleet size (Config.FleetSize)")
	}
	faultSpec := ""
	if s.cfg.Faults != nil {
		faultSpec = s.cfg.Faults.String()
	}
	return fleet.Run(ctx, fleet.Options{
		Seed:         s.cfg.Seed,
		Size:         s.cfg.FleetSize,
		Shards:       s.cfg.FleetShards,
		Workers:      s.cfg.Workers,
		Jitter:       s.fleetJitter,
		BaseBoards:   s.BoardNames(),
		Benches:      benches,
		Checkpoint:   s.cfg.Checkpoint,
		Res:          s.res,
		FaultProfile: faultSpec,
		Obs:          s.cfg.Obs,
		TrackPrefix:  s.cfg.TrackPrefix,
		CodeVersion:  s.cfg.CodeVersion,
		Tracker:      s.fleetTracker,
	})
}

// FleetProgress reports the per-shard progress of the session's fleet
// campaign; ok is false for classic (non-fleet) sessions. Safe to poll
// while Fleet runs.
func (s *Session) FleetProgress() ([]fleet.ShardProgress, bool) {
	if s.fleetTracker == nil {
		return nil, false
	}
	return s.fleetTracker.Snapshot(), true
}

// Collect builds one board's modeling dataset through the unified
// collection engine.
func (s *Session) Collect(ctx context.Context, boardName string, benches []*workloads.Benchmark) (*core.Dataset, error) {
	return core.CollectCtx(ctx, boardName, benches,
		core.CollectOptions{Seed: s.cfg.Seed, Workers: s.cfg.Workers, Res: s.res})
}

// Model trains a unified power or time model over a dataset with the
// session's variable cap, stopping at a selection-step boundary on
// cancel.
func (s *Session) Model(ctx context.Context, ds *core.Dataset, kind core.Kind) (*core.Model, error) {
	return core.TrainCtx(ctx, ds, kind, s.cfg.MaxVars)
}

// Device opens one board wired with the session's seed, fault campaign
// and recorder — the factory the interactive front ends (gpusim, sched)
// use so their measurements share the campaign configuration. Only
// gpusim's one-shot run draws faults from the attached injector: sched's
// sweeps measure fault-free (see characterize.SweepBenchmark), so sched
// takes no -faults flag.
func (s *Session) Device(boardName string) (*driver.Device, error) {
	dev, err := driver.OpenBoardWithFaults(boardName, s.res.Injector("device|"+boardName, 0))
	if err != nil {
		return nil, err
	}
	dev.Seed(s.cfg.Seed)
	if s.cfg.Obs != nil {
		dev.Observe(s.cfg.Obs, s.cfg.Obs.Track("device/"+boardName))
	}
	dev.SetPowerFanout(s.cfg.PowerFanout)
	return dev, nil
}
