// Package reproduce renders the complete reproduction: it reruns every
// experiment of the paper in order — Section II apparatus tables, the
// Section III characterization sweeps, the Section IV modeling study — plus
// the repository's ablations and the Radeon future-work extension, and
// writes everything into one text report.
//
// The sweeps and collections are one measurement campaign, and a
// session.Session is where a campaign is built: its boards, seed, fault
// policy, checkpoint journal, launch-cache mode, recorder and repetition
// cohort. Run renders the report from an open session; RunContext opens
// one from Options, runs and closes it. cmd/paper is a thin wrapper over
// Run; the integration tests drive the same code.
package reproduce

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/characterize"
	"gpuperf/internal/core"
	"gpuperf/internal/driver"
	"gpuperf/internal/regress"
	"gpuperf/internal/report"
	"gpuperf/internal/selfcheck"
	"gpuperf/internal/session"
	"gpuperf/internal/validity"
	"gpuperf/internal/workloads"
)

// Sections toggles the report's sections; DefaultSections turns every one
// on.
type Sections struct {
	Apparatus        bool // Tables I & III
	Characterization bool // Table IV, Figs. 1–4
	Modeling         bool // Tables V–VIII, Figs. 5–11
	Ablations        bool // DESIGN.md §6
	FutureWork       bool // AMD Radeon extension
	// SelfCheck appends the apparatus invariant checks to the report and
	// fails the run if any check fails.
	SelfCheck bool
}

// DefaultSections selects the whole report.
func DefaultSections() Sections {
	return Sections{
		Apparatus:        true,
		Characterization: true,
		Modeling:         true,
		Ablations:        true,
		FutureWork:       true,
		SelfCheck:        true,
	}
}

// Quick trims the sections to the characterization ones — the CLI
// "-quick" toggle.
func Quick(sec *Sections) {
	sec.Modeling = false
	sec.Ablations = false
	sec.FutureWork = false
	sec.SelfCheck = false
}

// Options configures a RunContext: the campaign session.Open builds, and
// the report's sections. A reproduction reads every session field but
// TrackPrefix, since it names its own phase tracks ("1.fig", "2.table4"),
// and the fleet fields, since cmd/paper sends -fleet-size to
// Session.Fleet instead of reproducing. Under a fault profile, cells and
// benchmarks that exhaust the retry budget degrade gracefully (Table IV
// shows "n/a (unstable)", models train without the benchmark) and a
// degradation summary lists what was lost; the ablations and future work
// always run fault-free, as mechanism probes rather than measurements.
type Options struct {
	session.Config
	Sections
}

// DefaultOptions mirrors the paper's configuration at the process's
// launch-caching mode, so a RunContext under a pushed uncached mode stays
// uncached.
func DefaultOptions() Options {
	cfg := session.DefaultConfig()
	cfg.Cache = driver.LaunchCachingEnabled()
	return Options{Config: cfg, Sections: DefaultSections()}
}

// harness is a reproduction's degradation bookkeeping over its session:
// the triage engine, and the degraded cells, dropped benchmarks and
// retries the summary section renders.
type harness struct {
	triage   *validity.Triage
	degraded []characterize.Degradation
	dropped  map[string][]core.DroppedBench
	retries  int
}

// note records a campaign's degradations and retry tally for the summary.
func (h *harness) note(results map[string][]*characterize.BenchResult) {
	h.degraded = append(h.degraded, characterize.Degradations(results)...)
	for _, rs := range results {
		for _, r := range rs {
			for _, pr := range r.Pairs {
				h.retries += pr.Retries
			}
		}
	}
}

// Result carries the headline numbers for programmatic checks.
type Result struct {
	MeanImprovementPct map[string]float64 // Fig. 4 per board
	PowerR2            map[string]float64 // Table V
	TimeR2             map[string]float64 // Table VI
	PowerErrPct        map[string]float64 // Table VII
	PowerErrW          map[string]float64 // Table VII
	TimeErrPct         map[string]float64 // Table VIII

	// Fault-campaign bookkeeping; all zero/empty when no campaign ran or
	// when every fault was retried away. Retries is deliberately absent
	// from the report text so a fully recovered run stays byte-identical
	// to a fault-free one.
	Retries        int
	DegradedCells  int
	CheckpointHits int
	Dropped        map[string][]core.DroppedBench

	// Triage is the finalized validity report (nil unless the triage
	// engine engaged — see session.Session.TriageOn).
	Triage *validity.Report

	Elapsed time.Duration
}

// RunContext opens a session from opts.Config, renders the opts.Sections
// report from it with Run, and closes it.
func RunContext(ctx context.Context, opts Options, w io.Writer) (*Result, error) {
	s, err := session.Open(opts.Config)
	if err != nil {
		return nil, err
	}
	res, err := Run(ctx, s, opts.Sections, w)
	if cerr := s.Close(); err == nil && cerr != nil {
		return nil, cerr
	}
	return res, err
}

// Run renders the selected sections of the reproduction from an open
// session, writing the report to w, with cooperative cancellation
// threaded through every section: sweeps and collections stop within one
// cell of the cancel, model training stops at a selection-step boundary,
// and the returned error wraps the context's cause. The session's
// checkpoint journal is left resumable — a rerun replays the completed
// cells and produces a byte-identical report.
func Run(ctx context.Context, s *session.Session, sec Sections, w io.Writer) (*Result, error) {
	start := time.Now() //gpulint:ignore determinism -- feeds only the elapsed line, which byte-identity goldens strip (grep -v)
	cfg := s.Config()
	boards := s.Boards()
	res := &Result{
		MeanImprovementPct: map[string]float64{},
		PowerR2:            map[string]float64{},
		TimeR2:             map[string]float64{},
		PowerErrPct:        map[string]float64{},
		PowerErrW:          map[string]float64{},
		TimeErrPct:         map[string]float64{},
	}
	h := &harness{dropped: map[string][]core.DroppedBench{}}
	if s.TriageOn() {
		h.triage = s.NewTriage()
	}
	if cfg.Obs != nil {
		defer regress.Observe(cfg.Obs.Metrics())()
	}

	fmt.Fprintf(w, "gpuperf — full reproduction (seed %d)\n", cfg.Seed)
	fmt.Fprintf(w, "Abe et al., \"Power and Performance Characterization and Modeling of GPU-Accelerated Systems\", 2014\n\n")

	if sec.Apparatus {
		fmt.Fprintln(w, report.Table1(boards).String())
		fmt.Fprintln(w, report.Table3(boards).String())
		if err := saveArtifact(cfg.ArtifactsDir, "table1.csv", report.Table1(boards).CSV()); err != nil {
			return nil, err
		}
		if err := saveArtifact(cfg.ArtifactsDir, "table3.csv", report.Table3(boards).CSV()); err != nil {
			return nil, err
		}
	}

	if sec.Characterization {
		if err := runCharacterization(ctx, s, h, res, w); err != nil {
			return nil, err
		}
	}

	if sec.Modeling {
		if err := runModeling(ctx, s, h, res, w); err != nil {
			return nil, err
		}
	}

	if sec.Ablations {
		if err := runAblations(ctx, cfg, w); err != nil {
			return nil, err
		}
	}

	if sec.FutureWork {
		if err := runFutureWork(ctx, cfg.Seed, w); err != nil {
			return nil, err
		}
	}

	res.Retries = h.retries
	res.DegradedCells = len(h.degraded)
	res.Dropped = h.dropped
	if j := s.Journal(); j != nil {
		res.CheckpointHits = j.Hits()
	}
	writeDegradationSummary(h, w)

	if h.triage != nil {
		trep := h.triage.Finalize()
		res.Triage = trep
		writeTriageSummary(trep, w)
		if cfg.TriageOut != "" {
			if err := trep.WriteFile(cfg.TriageOut); err != nil {
				return nil, err
			}
		}
	}

	if sec.SelfCheck {
		fmt.Fprintln(w, "== Apparatus self-check ==")
		fmt.Fprintln(w)
		checks := selfcheck.Run(cfg.Seed)
		failed := 0
		for _, c := range checks {
			status := "ok  "
			if !c.OK {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(w, "%s  %-36s %s\n", status, c.Name, c.Detail)
		}
		fmt.Fprintf(w, "\n%d checks, %d failed\n\n", len(checks), failed)
		if failed > 0 {
			return nil, fmt.Errorf("reproduce: %d self-checks failed", failed)
		}
	}

	res.Elapsed = time.Since(start) //gpulint:ignore determinism -- the "completed in" line is wall-clock by design; goldens strip it (grep -v)
	fmt.Fprintf(w, "\nreproduction completed in %v\n", res.Elapsed.Round(time.Millisecond))
	return res, nil
}

// writeDegradationSummary renders what the fault campaign could not
// recover. It prints nothing for a fully recovered campaign, which keeps
// such reports byte-identical to fault-free runs.
func writeDegradationSummary(h *harness, w io.Writer) {
	ndropped := 0
	for _, ds := range h.dropped {
		ndropped += len(ds)
	}
	if len(h.degraded) == 0 && ndropped == 0 {
		return
	}
	fmt.Fprintln(w, "== Fault-campaign degradation summary ==")
	fmt.Fprintln(w)
	for _, d := range h.degraded {
		fmt.Fprintf(w, "  %s\n", d.Line)
	}
	boards := make([]string, 0, len(h.dropped))
	for b := range h.dropped {
		boards = append(boards, b)
	}
	sort.Strings(boards)
	for _, b := range boards {
		for _, d := range h.dropped[b] {
			fmt.Fprintf(w, "  %s / %s: dropped from the modeling set (%s)\n", b, d.Benchmark, d.Point)
		}
	}
	fmt.Fprintf(w, "\n%d degraded cells, %d dropped benchmarks\n\n", len(h.degraded), ndropped)
}

// writeTriageSummary renders the human form of the validity triage: the
// cohort line, verdict counts and every non-VALID cell with its reason.
func writeTriageSummary(trep *validity.Report, w io.Writer) {
	fmt.Fprintln(w, "== Campaign validity triage ==")
	fmt.Fprintln(w)
	fmt.Fprintln(w, trep.Summary())
	for _, c := range trep.Cells {
		if c.Class == validity.Valid {
			continue
		}
		fmt.Fprintf(w, "  %s %s/%s/%s@%s: %s\n", c.Class, c.Table, c.Board, c.Bench, c.Pair, c.Reason)
	}
	if trep.Publishable() {
		fmt.Fprintln(w, "publishable: yes")
	} else {
		fmt.Fprintln(w, "publishable: NO")
	}
	fmt.Fprintln(w)
}

// saveArtifact writes content under the artifacts directory; no-op when
// the directory is unset.
func saveArtifact(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, name)
	return os.WriteFile(filepath.Join(dir, slug), []byte(content), 0o644)
}

func runCharacterization(ctx context.Context, s *session.Session, h *harness, res *Result, w io.Writer) error {
	fmt.Fprintln(w, "== Section III — power and performance characterization ==")
	fmt.Fprintln(w)
	boards := s.Boards()
	artifacts := s.Config().ArtifactsDir

	// Every sweep is the session's repetition cohort under a phase track
	// prefix ("1.fig", "2.table4" — the numbers make the sorted export
	// layout follow campaign order). The report renders repetition 0
	// (bit-identical to a single run) and the triage engine judges cells
	// across the cohort under the named provenance table.
	sweep := func(prefix, table string, benches []*workloads.Benchmark) (map[string][]*characterize.BenchResult, error) {
		reps, err := s.RepeatUnder(ctx, prefix, benches)
		if err != nil {
			return nil, err
		}
		// The degradation summary covers the campaign itself (repetition
		// 0); the cross-repetition story is the triage report's.
		h.note(reps[0])
		if h.triage != nil {
			if err := characterize.ObserveTriageReps(h.triage, table, reps); err != nil {
				return nil, err
			}
		}
		return reps[0], nil
	}

	// Figs. 1–3: the three showcase benchmarks. The (benchmark, board)
	// grid is swept through one worker pool; printing stays in figure
	// order because every job's result is independent of pool scheduling.
	showcases := []struct {
		fig   int
		bench string
	}{{1, "backprop"}, {2, "streamcluster"}, {3, "gaussian"}}
	showBenches := make([]*workloads.Benchmark, len(showcases))
	for i, sc := range showcases {
		showBenches[i] = workloads.ByName(sc.bench)
	}
	showSweeps, err := sweep("1.fig", "fig1-3", showBenches)
	if err != nil {
		return err
	}
	for i, sc := range showcases {
		for _, spec := range boards {
			sw := showSweeps[spec.Name][i]
			var title string
			if best := sw.Best(); best != nil {
				title = fmt.Sprintf("Fig. %d — %s on %s (best %s, +%.1f%% efficiency, %.1f%% perf loss)",
					sc.fig, sc.bench, spec.Name,
					best.Pair, sw.ImprovementPct(), sw.PerfLossPct())
			} else {
				title = fmt.Sprintf("Fig. %d — %s on %s (unstable — no surviving cells)",
					sc.fig, sc.bench, spec.Name)
			}
			tbl := report.FigCurves(title, spec, characterize.Curves(sw, spec))
			fmt.Fprintln(w, tbl.String())
			name := fmt.Sprintf("fig%d-%s.csv", sc.fig, spec.Name)
			if err := saveArtifact(artifacts, name, tbl.CSV()); err != nil {
				return err
			}
		}
	}

	// Table IV and Fig. 4 over the full Table IV benchmark set. The Table
	// IV renderer consults the triage verdicts: a best-pair claim prints
	// only for cells the cohort judged VALID.
	all, err := sweep("2.table4", "table4", workloads.Table4())
	if err != nil {
		return err
	}
	for _, spec := range boards {
		res.MeanImprovementPct[spec.Name] = characterize.MeanImprovementPct(all[spec.Name])
	}
	fmt.Fprintln(w, report.Table4(boards, all, h.triage).String())
	fmt.Fprintln(w, report.Fig4(boards, all))
	if err := saveArtifact(artifacts, "table4.csv", report.Table4(boards, all, h.triage).CSV()); err != nil {
		return err
	}
	if err := saveArtifact(artifacts, "fig4.txt", report.Fig4(boards, all)); err != nil {
		return err
	}
	return nil
}

// observeModelingTriage feeds one board's modeling collection into the
// triage engine under the "modeling" provenance table: a benchmark whose
// retry budget was exhausted is an INFRA_FLAKE naming the fault point;
// the survivors are VALID single runs.
func observeModelingTriage(tr *validity.Triage, board string, ds *core.Dataset) error {
	dropped := map[string]string{}
	for _, d := range ds.Dropped {
		dropped[d.Benchmark] = fmt.Sprintf("retry budget exhausted at %s; dropped from the modeling set", d.Point)
	}
	benches := make([]string, 0, len(workloads.ModelingSet()))
	for _, b := range workloads.ModelingSet() {
		benches = append(benches, b.Name)
	}
	return validity.ObserveModeling(tr, board, benches, dropped)
}

// familyFit is one (board, kind) modeling job's results: the capped
// unified model with its evaluation over the board's rows, the Figs. 7/8
// points and the Figs. 9/10 columns.
type familyFit struct {
	model *core.Model
	eval  *core.Eval
	sweep []core.SweepPoint
	pairs []core.PairEval
}

// fitFamily runs one (board, kind) job: one selection path serves both
// the capped model and the Figs. 7/8 sweep, and the per-pair comparison's
// unified column reuses the capped model (same dataset, kind and variable
// budget) instead of re-running the full-width forward selection. Only
// the results outlive the job, so the family's path and design are
// garbage before the per-pair fits start.
func fitFamily(ctx context.Context, ds *core.Dataset, kind core.Kind, maxVars int) (*familyFit, error) {
	f, err := core.NewFamily(ctx, ds, kind, max(maxVars, core.SweepMaxVars))
	if err != nil {
		return nil, err
	}
	fit := &familyFit{}
	if fit.model, err = f.Model(maxVars); err != nil {
		return nil, err
	}
	if fit.sweep, err = f.Sweep(core.SweepMinVars, core.SweepMaxVars); err != nil {
		return nil, err
	}
	fit.eval = fit.model.Evaluate(ds.Rows)
	if fit.pairs, err = core.PerPairComparisonWith(ctx, ds, kind, maxVars, fit.model); err != nil {
		return nil, err
	}
	return fit, nil
}

func runModeling(ctx context.Context, s *session.Session, h *harness, res *Result, w io.Writer) error {
	fmt.Fprintln(w, "== Section IV — statistical modeling ==")
	fmt.Fprintln(w)
	cfg := s.Config()

	// Collect every board first, in board order. A board whose entire
	// modeling set was sacrificed to the campaign has no models; the fits,
	// tables and figures below cover the survivors.
	var modeled []*arch.Spec
	var datasets []*core.Dataset
	for _, spec := range s.Boards() {
		ds, err := s.Collect(ctx, spec.Name, workloads.ModelingSet())
		if err != nil {
			return err
		}
		if h.triage != nil {
			if err := observeModelingTriage(h.triage, spec.Name, ds); err != nil {
				return err
			}
		}
		h.retries += ds.Retries
		if len(ds.Dropped) > 0 {
			h.dropped[spec.Name] = ds.Dropped
			names := make([]string, len(ds.Dropped))
			for i, d := range ds.Dropped {
				names[i] = fmt.Sprintf("%s (%s)", d.Benchmark, d.Point)
			}
			fmt.Fprintf(w, "note: %s models trained without %s — retry budget exhausted\n\n",
				spec.Name, strings.Join(names, ", "))
		}
		if len(ds.Rows) == 0 {
			fmt.Fprintf(w, "note: %s — no modeling data survived the fault campaign; models skipped\n\n", spec.Name)
			continue
		}
		modeled = append(modeled, spec)
		datasets = append(datasets, ds)
	}

	// Fit the (board, kind) families on the worker pool. Job 2b+k is board
	// b's kind-k family; it writes only its own slot, and the pool reports
	// the first error in (board, kind) order, so the report is written
	// below from the slots exactly as a sequential run would write it.
	kinds := [2]core.Kind{core.Power, core.Time}
	fits := make([]*familyFit, 2*len(modeled))
	cancelled := func(ctx context.Context) error {
		return fmt.Errorf("reproduce: modeling cancelled: %w", context.Cause(ctx))
	}
	err := driver.Pool(ctx, cfg.Workers, len(fits), cancelled, func(job int) error {
		var err error
		fits[job], err = fitFamily(ctx, datasets[job/2], kinds[job%2], cfg.MaxVars)
		return err
	})
	if err != nil {
		return err
	}

	r2 := map[string][2]float64{}
	evals := map[string][2]*core.Eval{}
	for b, spec := range modeled {
		pe, te := fits[2*b].eval, fits[2*b+1].eval
		r2[spec.Name] = [2]float64{pe.AdjR2, te.AdjR2}
		evals[spec.Name] = [2]*core.Eval{pe, te}
		res.PowerR2[spec.Name] = pe.AdjR2
		res.TimeR2[spec.Name] = te.AdjR2
		res.PowerErrPct[spec.Name] = pe.MeanAbsPct
		res.PowerErrW[spec.Name] = pe.MeanAbsRaw
		res.TimeErrPct[spec.Name] = te.MeanAbsPct
	}

	fmt.Fprintln(w, report.Table56(r2, modeled).String())
	fmt.Fprintln(w, report.Table78(evals, modeled).String())
	if err := saveArtifact(cfg.ArtifactsDir, "table5-6.csv", report.Table56(r2, modeled).CSV()); err != nil {
		return err
	}
	if err := saveArtifact(cfg.ArtifactsDir, "table7-8.csv", report.Table78(evals, modeled).CSV()); err != nil {
		return err
	}

	// Figs. 5 and 6: error distributions.
	for k, kind := range kinds {
		for b, spec := range modeled {
			title := fmt.Sprintf("Fig. %d — %s-model error distribution (%s)", 5+k, kind, spec.Name)
			tbl := report.Fig56(title, fits[2*b+k].model.PerBenchmarkErrors(datasets[b].Rows))
			fmt.Fprintln(w, tbl.String())
			name := fmt.Sprintf("fig%d-%s.csv", 5+k, spec.Name)
			if err := saveArtifact(cfg.ArtifactsDir, name, tbl.CSV()); err != nil {
				return err
			}
		}
	}

	// Figs. 7 and 8: explanatory-variable sweeps.
	for k, kind := range kinds {
		for b, spec := range modeled {
			title := fmt.Sprintf("Fig. %d — variables vs accuracy, %s model (%s)", 7+k, kind, spec.Name)
			fmt.Fprintln(w, report.Fig78(title, fits[2*b+k].sweep).String())
		}
	}

	// Figs. 9 and 10: per-pair vs unified.
	for k, kind := range kinds {
		for b, spec := range modeled {
			title := fmt.Sprintf("Fig. %d — per-pair vs unified %s models (%s)", 9+k, kind, spec.Name)
			fmt.Fprintln(w, report.Fig910(title, fits[2*b+k].pairs))
		}
	}

	// Fig. 11: influence breakdowns.
	for b, spec := range modeled {
		for k, kind := range kinds {
			title := fmt.Sprintf("Fig. 11 — influence, %s model (%s)", kind, spec.Name)
			fmt.Fprintln(w, report.Fig11(title, fits[2*b+k].model.Influences(datasets[b].Rows)).String())
		}
	}
	return nil
}

func runAblations(ctx context.Context, cfg session.Config, w io.Writer) error {
	fmt.Fprintln(w, "== Ablations (DESIGN.md §6) ==")
	fmt.Fprintln(w)

	// Voltage-flat Kepler.
	normal, err := sweepImprovement(ctx, arch.GTX680(), "backprop", cfg.Seed)
	if err != nil {
		return err
	}
	flat := arch.GTX680()
	flat.CoreVoltLow = flat.CoreVoltHigh
	flat.MemVoltLow = flat.MemVoltHigh
	flat.VoltExponent = 1
	flatImp, err := sweepImprovement(ctx, flat, "backprop", cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "voltage-flat GTX 680: backprop best-pair gain %.1f%% → %.1f%%\n", normal, flatImp)
	fmt.Fprintf(w, "  (voltage headroom is the Kepler mechanism)\n\n")

	// Clock-blind (naive) power model. The collect is a byte-identical
	// repeat of the modeling section's on freshly booted devices, so it
	// re-simulates its launches (each device compiles its kernels once and
	// evaluates them at every pair). Ablations always run fault-free —
	// they are mechanism probes, not measurement campaigns.
	ds, err := core.CollectCtx(ctx, "GTX 680", workloads.ModelingSet(),
		core.CollectOptions{Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return err
	}
	um, err := core.TrainCtx(ctx, ds, core.Power, cfg.MaxVars)
	if err != nil {
		return err
	}
	nm, err := core.TrainNaive(ctx, ds, core.Power, cfg.MaxVars)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "clock-blind power model: %.1f%% error vs unified %.1f%%\n",
		nm.Evaluate(ds.Rows).MeanAbsPct, um.Evaluate(ds.Rows).MeanAbsPct)
	fmt.Fprintf(w, "  (Eq. 1's frequency terms are load-bearing)\n\n")
	return nil
}

func runFutureWork(ctx context.Context, seed int64, w io.Writer) error {
	fmt.Fprintln(w, "== Future work — AMD Radeon (GCN) ==")
	fmt.Fprintln(w)
	spec := arch.RadeonHD7970()
	dev, err := driver.OpenSpec(spec)
	if err != nil {
		return err
	}
	dev.Seed(seed)
	fmt.Fprintf(w, "board: %s (%s), %d stream processors, %d-counter profiler set\n",
		spec.Name, spec.Generation, spec.TotalCores(), dev.CounterSet().Len())
	for _, bench := range []string{"backprop", "streamcluster", "gaussian"} {
		sw, err := characterize.SweepBenchmarkCtx(ctx, dev, workloads.ByName(bench))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s best %s  +%.1f%% efficiency, %.1f%% perf loss\n",
			bench, sw.Best().Pair, sw.ImprovementPct(), sw.PerfLossPct())
	}
	fmt.Fprintln(w)
	return nil
}

func sweepImprovement(ctx context.Context, spec *arch.Spec, bench string, seed int64) (float64, error) {
	dev, err := driver.OpenSpec(spec)
	if err != nil {
		return 0, err
	}
	dev.Seed(seed)
	r, err := characterize.SweepBenchmarkCtx(ctx, dev, workloads.ByName(bench))
	if err != nil {
		return 0, err
	}
	return r.ImprovementPct(), nil
}
