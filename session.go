package gpuperf

import (
	"context"
	"io"

	"gpuperf/internal/obs"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

// Session is the campaign engine's front door: one value owning the full
// measurement-stack configuration (seed, worker pool, boards, fault
// policy, checkpoint journal, launch cache, observability) and exposing
// the context-aware campaign methods Sweep, Repeat, Collect, Model and
// Fleet and the Device factory; Reproduce renders the paper report from
// one. Build one with OpenSession and release it with Close; see
// internal/session for the construction graph and the cancellation
// contract.
type Session = session.Session

// SessionConfig is the resolved configuration behind a Session
// (Session.Config returns a copy).
type SessionConfig = session.Config

// SessionOption is a functional option for OpenSession.
type SessionOption = session.Option

// ReportSections selects the sections of a Reproduce report; tweak them
// via Reproduce's variadic tweaks argument, e.g. QuickReport.
type ReportSections = reproduce.Sections

// ReportResult summarizes a finished reproduction run.
type ReportResult = reproduce.Result

// Recorder is the deterministic observability recorder a session
// distributes to every layer (see SessionWithObs).
type Recorder = obs.Recorder

// Functional options for OpenSession; each sets one SessionConfig field
// (the internal/session definitions are the single implementation).
var (
	// WithSeed sets the campaign seed (default 42); every campaign is a
	// pure function of it.
	WithSeed = session.WithSeed
	// WithWorkers bounds the sweep, collect and modeling-fit pools; 1 is
	// the bit-exact sequential reference and output is identical at any
	// width.
	WithWorkers = session.WithWorkers
	// WithBoards restricts the session to the named Table I boards.
	WithBoards = session.WithBoards
	// WithMaxVars caps the models' explanatory variables (default 10).
	WithMaxVars = session.WithMaxVars
	// SessionWithFaults runs campaigns under a fault-injection profile.
	SessionWithFaults = session.WithFaults
	// WithRetryPolicy sets the transient-fault retry budget and the
	// per-run watchdog deadline.
	WithRetryPolicy = session.WithRetryPolicy
	// WithCheckpoint journals completed sweep cells to a path and resumes
	// from it.
	WithCheckpoint = session.WithCheckpoint
	// SessionWithObs attaches an observability recorder.
	SessionWithObs = session.WithObs
	// WithCache toggles launch memoization (default on; output is
	// identical either way).
	WithCache = session.WithCache
	// WithArtifactsDir routes Reproduce's per-table/figure files to a
	// directory.
	WithArtifactsDir = session.WithArtifactsDir
)

// QuickReport trims a reproduction to the characterization sections only
// — Reproduce's equivalent of the paper command's -quick flag.
var QuickReport = reproduce.Quick

// Reproduce runs the paper reproduction on an open session, writing the
// report to w. Every section runs unless a tweak turns it off.
//
//	_, err := gpuperf.Reproduce(ctx, s, os.Stdout, gpuperf.QuickReport)
func Reproduce(ctx context.Context, s *Session, w io.Writer, tweaks ...func(*ReportSections)) (*ReportResult, error) {
	sec := reproduce.DefaultSections()
	for _, t := range tweaks {
		t(&sec)
	}
	return reproduce.Run(ctx, s, sec, w)
}

// NewRecorder builds an observability recorder for SessionWithObs.
func NewRecorder() *Recorder { return obs.New() }

// OpenSession builds a campaign Session from the default configuration
// plus options. The caller must Close it.
//
//	s, err := gpuperf.OpenSession(gpuperf.WithBoards("GTX 680"), gpuperf.WithSeed(7))
//	if err != nil { ... }
//	defer s.Close()
//	results, err := s.Sweep(ctx, gpuperf.Table4Benchmarks())
func OpenSession(options ...SessionOption) (*Session, error) {
	return session.New(options...)
}

// Table4Benchmarks returns the paper's Table IV characterization set, for
// Session.Sweep.
func Table4Benchmarks() []*Benchmark { return workloads.Table4() }

// ModelingBenchmarks returns the Section IV modeling corpus (the
// 33-benchmark, 114-sample set), for Session.Collect.
func ModelingBenchmarks() []*Benchmark { return workloads.ModelingSet() }
