// Package cliflags is the one definition of the campaign flag block the
// command front ends share. Every campaign command (paper, characterize,
// model, gpusim, sched) registers the identical, identically-documented
// set — seed, workers, cache mode, fault profile, retry policy,
// checkpoint, and the observability outputs — and translates it to a
// session.Config with Campaign.Config. Command-specific flags (-quick,
// -table, -fig, …) stay in the commands; the campaign vocabulary lives
// here so it cannot drift between them again.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"gpuperf/internal/fault"
	"gpuperf/internal/fleet"
	"gpuperf/internal/obs"
	"gpuperf/internal/session"
	"gpuperf/internal/trace"
)

// Campaign holds the parsed shared flag block. Zero value is not ready;
// build one with Register.
type Campaign struct {
	Seed          int64
	Workers       int
	NoCache       bool
	Faults        string
	MaxRetries    int
	LaunchTimeout time.Duration
	Checkpoint    string
	Repetitions   int
	MinValid      int
	TriageOut     string
	TraceOut      string
	MetricsOut    string
	EventsOut     string
	Progress      bool
	CPUProfile    string
	MemProfile    string
	FleetSize     int
	Shards        int
	JitterProfile string
}

// Register installs the shared campaign flag block on fs (flag.CommandLine
// in the commands) and returns the destination struct. Call before
// fs.Parse.
func Register(fs *flag.FlagSet) *Campaign {
	c := &Campaign{}
	fs.Int64Var(&c.Seed, "seed", 42, "measurement-noise seed")
	fs.IntVar(&c.Workers, "workers", runtime.GOMAXPROCS(0),
		"pool width of the sweeps, collections and modeling fits; 1 is the bit-exact sequential reference (output is identical at any width)")
	fs.BoolVar(&c.NoCache, "nocache", false,
		"disable launch memoization (uncached reference mode; output is identical either way)")
	fs.StringVar(&c.Faults, "faults", "",
		`fault-injection profile, e.g. "launch.hang:0.02,meter.drop:0.001" (empty: fault-free)`)
	fs.IntVar(&c.MaxRetries, "max-retries", fault.DefaultMaxRetries,
		"transient-fault retry budget per boot/clock-set/metered run")
	fs.DurationVar(&c.LaunchTimeout, "launch-timeout", fault.DefaultLaunchTimeout,
		"per-run watchdog deadline for hung launches")
	fs.StringVar(&c.Checkpoint, "checkpoint", "",
		"journal completed characterization sweep cells to this path and resume from it (modeling collections are not journaled)")
	fs.IntVar(&c.Repetitions, "repetitions", 1,
		"repetition-cohort size: run each characterization sweep N times with independent noise/fault streams and triage every cell on cross-repetition agreement (1: classic single run)")
	fs.IntVar(&c.MinValid, "min-valid", 0,
		"publishability floor in valid repetitions per cell (0: every repetition must be valid)")
	fs.StringVar(&c.TriageOut, "triage-out", "",
		"write the machine-readable validity-triage report (JSON) to this path, e.g. reports/baseline.json")
	fs.StringVar(&c.TraceOut, "trace-out", "",
		"write a Chrome/Perfetto trace of the campaign to this path")
	fs.StringVar(&c.MetricsOut, "metrics-out", "",
		"write Prometheus-style metrics exposition to this path")
	fs.StringVar(&c.EventsOut, "events-out", "",
		"write the raw instrumentation events as JSONL to this path")
	fs.BoolVar(&c.Progress, "progress", false,
		"print a periodic one-line campaign status to stderr (implies instrumentation)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the campaign to this path")
	fs.StringVar(&c.MemProfile, "memprofile", "",
		"write a pprof heap profile at campaign exit to this path")
	fs.IntVar(&c.FleetSize, "fleet-size", 0,
		"run a fleet campaign over N jittered devices generated from the board set (0: the classic per-board campaign)")
	fs.IntVar(&c.Shards, "shards", 1,
		"partition fleet devices across N shard pipelines, each with its own checkpoint journal (the report is byte-identical at any shard count)")
	fs.StringVar(&c.JitterProfile, "jitter-profile", "",
		`per-device parameter spread for fleet campaigns: a preset (default, none, tight, loose) or "key:fraction" pairs, e.g. "corevolt:0.03,leak:0.08"`)
	return c
}

// StartProfiling begins CPU profiling when -cpuprofile is set. The
// returned stop function ends the CPU profile and — when -memprofile is
// set — snapshots the heap after a GC; it is safe to defer whether or not
// either flag was given. Error paths that os.Exit skip the deferred stop,
// so a failed campaign leaves a truncated CPU profile and no heap profile,
// exactly like any pprof-instrumented tool.
func (c *Campaign) StartProfiling() (func(), error) {
	var cpuF *os.File
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return nil, err
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

// Config validates the block and translates it to a session.Config:
// parsed fault profile, an observability recorder when any output flag
// asked for one, cache mode, and the checkpoint path, with boards
// restricting the campaign when non-empty.
func (c *Campaign) Config(boards ...string) (session.Config, error) {
	cfg := session.DefaultConfig()
	if err := fault.ValidateHarness(c.Workers, c.MaxRetries, c.LaunchTimeout); err != nil {
		return cfg, err
	}
	cfg.Seed = c.Seed
	cfg.Workers = c.Workers
	cfg.Cache = !c.NoCache
	cfg.Boards = boards
	cfg.MaxRetries = c.MaxRetries
	cfg.LaunchTimeout = c.LaunchTimeout
	cfg.Checkpoint = c.Checkpoint
	if c.Repetitions < 1 {
		return cfg, fmt.Errorf("-repetitions must be ≥ 1 (got %d)", c.Repetitions)
	}
	if c.MinValid < 0 || c.MinValid > c.Repetitions {
		return cfg, fmt.Errorf("-min-valid %d outside [0, repetitions=%d]", c.MinValid, c.Repetitions)
	}
	cfg.Repetitions = c.Repetitions
	cfg.MinValid = c.MinValid
	cfg.TriageOut = c.TriageOut
	if c.Faults != "" {
		p, err := fault.ParseProfile(c.Faults)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = p
	}
	if c.FleetSize < 0 {
		return cfg, fmt.Errorf("-fleet-size must be ≥ 0 (got %d)", c.FleetSize)
	}
	if c.Shards < 1 {
		return cfg, fmt.Errorf("-shards must be ≥ 1 (got %d)", c.Shards)
	}
	if c.FleetSize == 0 && (c.Shards > 1 || c.JitterProfile != "") {
		return cfg, fmt.Errorf("-shards/-jitter-profile require -fleet-size ≥ 1")
	}
	if c.FleetSize >= 1 {
		if _, err := fleet.ParseJitterProfile(c.JitterProfile); err != nil {
			return cfg, err
		}
		cfg.FleetSize = c.FleetSize
		cfg.FleetShards = c.Shards
		cfg.FleetJitter = c.JitterProfile
	}
	if c.Instrumented() {
		cfg.Obs = obs.New()
	}
	return cfg, nil
}

// NoFleet rejects the fleet flag block for commands that have no fleet
// campaign path (model, gpusim, sched), with the usage exit code. Call
// after fs.Parse, before Config.
func (c *Campaign) NoFleet(cmd string) {
	if c.FleetSize != 0 || c.Shards != 1 || c.JitterProfile != "" {
		Usage(cmd, fmt.Errorf("fleet campaigns are not supported by %s; use characterize or paper", cmd))
	}
}

// Instrumented reports whether any flag asked for an observability
// recorder.
func (c *Campaign) Instrumented() bool {
	return c.TraceOut != "" || c.MetricsOut != "" || c.EventsOut != "" || c.Progress
}

// StartProgress starts the periodic status line when -progress is set,
// reporting the named counters; the returned stop is safe to defer
// either way. The ticker goroutine also ends when ctx is cancelled (a
// SIGINT mid-campaign), so an aborted command never leaks it.
func (c *Campaign) StartProgress(ctx context.Context, rec *obs.Recorder, w io.Writer, counters ...string) func() {
	if !c.Progress || rec == nil {
		return func() {}
	}
	return rec.StartProgressCtx(ctx, w, 2*time.Second, counters...)
}

// WriteArtifacts flushes the recorder to the -trace-out, -metrics-out
// and -events-out paths (no-ops when unset).
func (c *Campaign) WriteArtifacts(rec *obs.Recorder) error {
	return trace.WriteArtifacts(rec, c.TraceOut, c.MetricsOut, c.EventsOut)
}

// SignalContext is the root context every campaign command runs under:
// the first interrupt cancels it — aborting sweeps and collections within
// one cell per worker, with a configured checkpoint journal left
// resumable — and restores default signal handling so a second interrupt
// kills the process.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

// ServerSignalContext is the root context a serving process (gpuperfd)
// runs under: both SIGINT and SIGTERM cancel it — SIGTERM being what
// process supervisors send on shutdown — so the daemon can drain
// in-flight campaigns to a checkpoint boundary before exiting. A second
// signal kills the process (default handling is restored on the first).
func ServerSignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Fatal prints a command-prefixed error and exits 1.
func Fatal(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(1)
}

// Usage prints a command-prefixed flag-validation error and exits 2,
// like flag's own parse failures.
func Usage(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	flag.Usage()
	os.Exit(2)
}
