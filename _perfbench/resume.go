package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gpuperf/internal/characterize"
	"gpuperf/internal/obs"
	"gpuperf/internal/report"
	"gpuperf/internal/session"
	"gpuperf/internal/workloads"
)

// sweepReps is the repetition-cohort size of the resume and serve
// campaigns.
const sweepReps = 3

// sweepConfig is a Table IV repetition cohort over the four paper boards,
// journaled to checkpoint.
func sweepConfig(seed int64, workers int, cache bool, checkpoint string) session.Config {
	cfg := session.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = workers
	cfg.Cache = cache
	cfg.Repetitions = sweepReps
	cfg.Checkpoint = checkpoint
	return cfg
}

// sweepRun is one Table IV cohort's outcome: the rendered report (the text
// gpuperfd serves at /report), the cohort's results and the session's
// final progress.
type sweepRun struct {
	text     string
	reps     []map[string][]*characterize.BenchResult
	progress session.Progress
}

// runSweep runs one Table IV cohort through a session — open, repeat,
// triage, render, close, each under a span of op — exactly as gpuperfd's
// sweep campaign does.
func runSweep(ctx context.Context, tr *tracer, op int64, parent *span, cfg session.Config) (*sweepRun, error) {
	sp := tr.begin(op, parent.id(), "session.open")
	sess, err := session.Open(cfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	defer func() {
		sp := tr.begin(op, parent.id(), "session.close")
		_ = sess.Close() // the journal holds only cells Record already wrote
		tr.end(sp)
	}()
	sp = tr.begin(op, parent.id(), "session.repeat")
	reps, err := sess.Repeat(ctx, workloads.Table4())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, parent.id(), "validity.triage")
	tri := sess.NewTriage()
	err = characterize.ObserveTriageReps(tri, "table4", reps)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Rendered exactly as the daemon's sweep campaign renders its report,
	// before the triage is finalized.
	sp = tr.begin(op, parent.id(), "report.table4")
	var b strings.Builder
	b.WriteString(report.Table4(sess.Boards(), reps[0], tri).String())
	b.WriteString("\n")
	for _, d := range characterize.Degradations(reps[0]) {
		b.WriteString("degraded: " + d.Line + "\n")
	}
	tr.end(sp)
	sp = tr.begin(op, parent.id(), "validity.triage")
	tri.Finalize()
	tr.end(sp)
	return &sweepRun{text: b.String(), reps: reps, progress: sess.Progress()}, nil
}

// fig4FromReps is report.fig4_err_pp over a cohort's repetition 0.
func fig4FromReps(reps []map[string][]*characterize.BenchResult) float64 {
	means := map[string]float64{}
	for board, rs := range reps[0] {
		means[board] = characterize.MeanImprovementPct(rs)
	}
	return fig4ErrPP(means)
}

// resume replays a complete checkpoint journal: set-up writes it, and
// every op reopens it through a session and replays all ~2.9k cells.
type resume struct {
	o        options
	journal  string
	ref      string
	replayed map[int64]float64 // cells replayed per traced op
	last     *sweepRun
}

func newResume(o options) *resume {
	return &resume{o: o, journal: filepath.Join(o.dir, "resume.journal"), replayed: map[int64]float64{}}
}

// Setup writes the journal in the bit-exact reference mode; the rendered
// table is the reference every replay must reproduce.
func (r *resume) Setup(ctx context.Context) (string, error) {
	if err := os.Remove(r.journal); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	run, err := runSweep(ctx, nil, 0, nil, sweepConfig(r.o.seed, 1, false, r.journal))
	if err != nil {
		return "", err
	}
	r.ref = digest(run.text)
	return r.ref, nil
}

func (r *resume) Op(ctx context.Context) error {
	_, err := r.replay(ctx, nil, 0)
	return err
}

func (r *resume) replay(ctx context.Context, tr *tracer, op int64) (*sweepRun, error) {
	root := tr.begin(op, 0, "resume.op")
	defer tr.end(root)
	run, err := runSweep(ctx, tr, op, root, sweepConfig(r.o.seed, nproc(), true, r.journal))
	if err != nil {
		return nil, err
	}
	if p := run.progress; p.Replayed != p.Planned {
		return nil, fmt.Errorf("journal replayed %d of %d cells", p.Replayed, p.Planned)
	}
	return run, check("Table IV render", run.text, r.ref)
}

func (r *resume) TracedOp(ctx context.Context, tr *tracer, op int64) error {
	run, err := r.replay(ctx, tr, op)
	if run != nil {
		r.replayed[op] = float64(run.progress.Replayed)
		r.last = run
	}
	return err
}

func (r *resume) Layers(ctx context.Context, tr *tracer, ops []int64, m metrics) error {
	if r.last == nil {
		return fmt.Errorf("no traced op completed")
	}
	m["session.open_ms"] = perCall(tr, ops, "session.open", nil) / 1e6
	m["validity.triage_ms"] = spanSelf(tr, ops, "validity.triage") / 1e6
	m["characterize.replay_cell_us"] = perCall(tr, ops, "session.repeat", func(op int64) float64 {
		return r.replayed[op]
	}) / 1e3
	p := r.last.progress
	m["characterize.journal_hit_ratio"] = float64(p.Replayed) / float64(p.Planned)
	m["report.fig4_err_pp"] = fig4FromReps(r.last.reps)

	// The journal open alone: session.Open's dominant cost on resume.
	sess, err := session.Open(sweepConfig(r.o.seed, nproc(), true, ""))
	if err != nil {
		return err
	}
	cohort := sess.Cohort()
	if err := sess.Close(); err != nil {
		return err
	}
	jo := timeCalls(10, func() error {
		j, err := characterize.OpenJournalCohort(r.journal, characterize.JournalConfig{Cohort: cohort})
		if err != nil {
			return err
		}
		return j.Close()
	})
	if jo.err != nil {
		return jo.err
	}
	m["characterize.journal_open_ms"] = jo.median.Seconds() * 1e3

	// The program's counters for one replay: devices still boot per
	// (board, benchmark) job, but no cell launches or meters.
	rec := obs.New()
	cfg := sweepConfig(r.o.seed, nproc(), true, r.journal)
	cfg.Obs = rec
	sess, err = session.Open(cfg)
	if err != nil {
		return err
	}
	defer sess.Close()
	if _, err := sess.Repeat(ctx, workloads.Table4()); err != nil {
		return err
	}
	setDriverMetrics(m, totals(rec.Metrics(), driverCounters...), 1)
	return nil
}

func (r *resume) Lanes() int { return 1 }

func (r *resume) Remainder() string { return "the benchmark's own checks and span bookkeeping" }
