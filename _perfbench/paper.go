package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"gpuperf/internal/arch"
	"gpuperf/internal/core"
	"gpuperf/internal/counters"
	"gpuperf/internal/driver"
	"gpuperf/internal/linalg"
	"gpuperf/internal/obs"
	"gpuperf/internal/regress"
	"gpuperf/internal/reproduce"
	"gpuperf/internal/workloads"
)

// paperFig4 is the paper's Fig. 4 mean power-efficiency improvement per
// board, in percent.
var paperFig4 = map[string]float64{"GTX 285": 0.8, "GTX 460": 12.3, "GTX 480": 12.1, "GTX 680": 24.4}

// fig4ErrPP is the mean absolute difference, in percentage points, between
// reproduced Fig. 4 board means and the paper's.
func fig4ErrPP(means map[string]float64) float64 {
	var sum float64
	for board, want := range paperFig4 {
		sum += math.Abs(means[board] - want)
	}
	return sum / float64(len(paperFig4))
}

// paper is the full reproduction, one op per cmd/paper run: every section
// from an empty shared launch cache, workers = nproc.
type paper struct {
	o    options
	ref  string
	fig4 float64
}

func newPaper(o options) *paper { return &paper{o: o} }

func (p *paper) options() reproduce.Options {
	opts := reproduce.DefaultOptions()
	opts.Seed = p.o.seed
	opts.Workers = nproc()
	return opts
}

func (p *paper) Setup(ctx context.Context) (string, error) {
	defer driver.PushLaunchCachingEnabled(false)()
	opts := p.options()
	opts.Workers = 1
	var b strings.Builder
	if _, err := reproduce.RunContext(ctx, opts, &b); err != nil {
		return "", err
	}
	p.ref = digest(stripElapsed(b.String()))
	return p.ref, nil
}

// freshCache gives the op an empty shared launch cache, as a new cmd/paper
// process has, and returns the restore function.
func freshCache() func() {
	return driver.PushSharedLaunchCache(driver.NewLaunchCache(driver.DefaultSharedLaunchCacheEntries))
}

func (p *paper) Op(ctx context.Context) error {
	defer freshCache()()
	var b strings.Builder
	if _, err := reproduce.RunContext(ctx, p.options(), &b); err != nil {
		return err
	}
	return check("paper report", stripElapsed(b.String()), p.ref)
}

// paperSections are the report's sections in run order, each selected
// alone through the Options toggles.
var paperSections = []struct {
	span string
	on   func(*reproduce.Options)
}{
	{"reproduce.apparatus", func(o *reproduce.Options) { o.Apparatus = true }},
	{"reproduce.characterization", func(o *reproduce.Options) { o.Characterization = true }},
	{"reproduce.modeling", func(o *reproduce.Options) { o.Modeling = true }},
	{"reproduce.ablations", func(o *reproduce.Options) { o.Ablations = true }},
	{"reproduce.futurework", func(o *reproduce.Options) { o.FutureWork = true }},
	{"reproduce.selfcheck", func(o *reproduce.Options) { o.SelfCheck = true }},
}

// TracedOp runs the sections one at a time, in order, on one fresh cache,
// and checks that their bodies reassemble the reference report.
func (p *paper) TracedOp(ctx context.Context, tr *tracer, op int64) error {
	defer freshCache()()
	root := tr.begin(op, 0, "paper.op")
	defer tr.end(root)
	header := fmt.Sprintf("gpuperf — full reproduction (seed %d)\n", p.o.seed)
	var full strings.Builder
	for i, sec := range paperSections {
		opts := p.options()
		opts.Apparatus, opts.Characterization, opts.Modeling = false, false, false
		opts.Ablations, opts.FutureWork, opts.SelfCheck = false, false, false
		sec.on(&opts)
		var b strings.Builder
		sp := tr.begin(op, root.id(), sec.span)
		res, err := reproduce.RunContext(ctx, opts, &b)
		tr.end(sp)
		if err != nil {
			return err
		}
		if sec.span == "reproduce.characterization" {
			p.fig4 = fig4ErrPP(res.MeanImprovementPct)
		}
		out := b.String()
		body := strings.SplitAfterN(out, "\n", 4) // two header lines, a blank, the body
		if len(body) < 4 || body[0] != header {
			return fmt.Errorf("section %s: unexpected report header", sec.span)
		}
		if i == 0 {
			full.WriteString(body[0] + body[1] + body[2])
		}
		rest := body[3]
		full.WriteString(rest[:strings.LastIndex(rest, "\nreproduction completed in ")])
	}
	full.WriteString("\n")
	return check("paper report (sections)", full.String(), p.ref)
}

func (p *paper) Layers(ctx context.Context, tr *tracer, ops []int64, m metrics) error {
	for _, sec := range paperSections[1:] { // the apparatus tables have no metric of their own
		m[sec.span+"_s"] = spanSelf(tr, ops, sec.span) / 1e9
	}
	m["report.fig4_err_pp"] = p.fig4

	// The program's own counters for one full op.
	if err := p.countOp(ctx, m); err != nil {
		return err
	}
	if err := modelingProbe(ctx, p.o.seed, m); err != nil {
		return err
	}
	return apparatusProbe(arch.GTX680(), workloads.Table4(), p.o.seed, m)
}

// countOp runs one op with a recorder attached and reads the driver,
// meter and regression counters through Registry.Total. The recorder
// routes the sweeps through the resilient harness, whose output is
// byte-identical to the plain path; the counters cover the observed
// sections (characterization and modeling).
func (p *paper) countOp(ctx context.Context, m metrics) error {
	defer freshCache()()
	rec := obs.New()
	opts := p.options()
	opts.Obs = rec
	var b strings.Builder
	if _, err := reproduce.RunContext(ctx, opts, &b); err != nil {
		return err
	}
	if err := check("paper report (observed)", stripElapsed(b.String()), p.ref); err != nil {
		return err
	}
	setDriverMetrics(m, totals(rec.Metrics(), driverCounters...), 1)
	return nil
}

// modelingProbe times the modeling layers on their own: the four boards'
// collections from a fresh cache, every TrainCtx, and forward selection
// and the least-squares solve on the GTX 680 power design.
func modelingProbe(ctx context.Context, seed int64, m metrics) error {
	defer freshCache()()
	var collect time.Duration
	var rows int
	var sets []*core.Dataset
	for _, spec := range arch.AllBoards() {
		start := time.Now()
		ds, err := core.CollectCtx(ctx, spec.Name, workloads.ModelingSet(),
			core.CollectOptions{Seed: seed, Workers: nproc()})
		if err != nil {
			return err
		}
		collect += time.Since(start)
		rows += len(ds.Rows)
		sets = append(sets, ds)
	}
	m["core.collect_s"] = collect.Seconds()
	m["core.rows"] = float64(rows)

	var train []float64
	for _, ds := range sets {
		for _, kind := range []core.Kind{core.Power, core.Time} {
			start := time.Now()
			if _, err := core.TrainCtx(ctx, ds, kind, core.MaxVariables); err != nil {
				return err
			}
			train = append(train, time.Since(start).Seconds()*1e3)
		}
	}
	m["core.train_ms"] = mean(train)

	x, y := powerDesign(sets[len(sets)-1])
	var sel *regress.Selection
	fs := timeCalls(5, func() error {
		var err error
		sel, err = regress.ForwardSelect(x, y, core.MaxVariables)
		return err
	})
	if fs.err != nil {
		return fs.err
	}
	m["regress.forward_select_ms"] = fs.median.Seconds() * 1e3

	design := make([][]float64, len(x))
	for i, row := range x {
		r := []float64{1}
		for _, c := range sel.Indices {
			r = append(r, row[c])
		}
		design[i] = r
	}
	a, err := linalg.FromRows(design)
	if err != nil {
		return err
	}
	ls := timeCalls(200, func() error {
		_, err := linalg.SolveLS(a, y)
		return err
	})
	if ls.err != nil {
		return ls.err
	}
	m["linalg.solve_ls_us"] = ls.median.Seconds() * 1e6
	return nil
}

// powerDesign builds Eq. 1's design matrix over a dataset: one feature per
// counter, its per-second rate scaled by the counter's clock domain.
func powerDesign(ds *core.Dataset) (x [][]float64, y []float64) {
	for i := range ds.Rows {
		o := &ds.Rows[i]
		row := make([]float64, ds.Set.Len())
		for j, d := range ds.Set.Defs {
			f := o.CoreGHz
			if d.Class == counters.MemEvent {
				f = o.MemGHz
			}
			if o.TimeS > 0 {
				row[j] = o.Counters[j] / o.TimeS * f
			}
		}
		x = append(x, row)
		y = append(y, o.PowerW)
	}
	return x, y
}

func (p *paper) Lanes() int { return 1 }

func (p *paper) Remainder() string {
	return "apparatus tables, the report header and per-section set-up; sections run alone repeat their harness set-up"
}
