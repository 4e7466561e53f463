package core

import (
	"context"
	"math"
	"sort"

	"gpuperf/internal/clock"
	"gpuperf/internal/regress"
)

// Eval summarizes a model's prediction quality over a row set — the
// ingredients of Tables V–VIII and Figs. 5, 6, 9 and 10.
type Eval struct {
	AdjR2      float64
	MeanAbsPct float64 // Tables VII / VIII metric
	MeanAbsRaw float64 // watts for the power model, seconds for time
	PctErrors  []float64
}

// Box returns the five-number summary of the percentage errors (the
// box-and-whisker form of Figs. 9 and 10).
func (e *Eval) Box() regress.BoxStats { return regress.Box(e.PctErrors) }

// Evaluate computes prediction errors of the model over rows.
func (m *Model) Evaluate(rows []Observation) *Eval {
	pred := make([]float64, len(rows))
	actual := make([]float64, len(rows))
	for i := range rows {
		pred[i] = m.Predict(&rows[i])
		actual[i] = target(m.Kind, &rows[i])
	}
	e := &Eval{
		AdjR2:      m.AdjR2(),
		MeanAbsPct: regress.MeanAbsPctError(pred, actual),
		MeanAbsRaw: regress.MeanAbsError(pred, actual),
	}
	for i := range pred {
		if actual[i] != 0 {
			e.PctErrors = append(e.PctErrors, math.Abs(pred[i]-actual[i])/math.Abs(actual[i])*100)
		}
	}
	return e
}

// BenchmarkError is the per-benchmark mean |error|% of Figs. 5 and 6.
type BenchmarkError struct {
	Benchmark string
	MeanPct   float64
}

// PerBenchmarkErrors computes the Figs. 5/6 distribution: mean absolute
// percentage error per benchmark, sorted ascending (the figures sort
// benchmarks independently per GPU).
func (m *Model) PerBenchmarkErrors(rows []Observation) []BenchmarkError {
	sums := map[string]float64{}
	counts := map[string]int{}
	for i := range rows {
		o := &rows[i]
		actual := target(m.Kind, o)
		if actual == 0 {
			continue
		}
		pct := math.Abs(m.Predict(o)-actual) / math.Abs(actual) * 100
		sums[o.Benchmark] += pct
		counts[o.Benchmark]++
	}
	out := make([]BenchmarkError, 0, len(sums))
	for name, s := range sums {
		out = append(out, BenchmarkError{Benchmark: name, MeanPct: s / float64(counts[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MeanPct < out[j].MeanPct })
	return out
}

// SweepPoint is one Figs. 7/8 point: the fit over the first Vars
// variables of the selection path and its mean |error|% over the rows.
type SweepPoint struct {
	Vars       int
	AdjR2      float64
	MeanAbsPct float64
}

// VariableSweep trains models with 1..maxVars variables and reports the
// mean |error|% at each size from minVars on — the Figs. 7/8 sweep. The
// context is checked before each forward-selection step, as in TrainCtx.
func VariableSweep(ctx context.Context, ds *Dataset, kind Kind, minVars, maxVars int) ([]SweepPoint, error) {
	f, err := NewFamily(ctx, ds, kind, maxVars)
	if err != nil {
		return nil, err
	}
	return f.Sweep(minVars, maxVars)
}

// Sweep evaluates the family's models of minVars..maxVars variables
// (inclusive) against the dataset's rows. The cap-maxVars selection is
// computed once and the smaller models are prefixes of it, each refit
// from the path's one factorization and evaluated as Model.Predict would.
func (f *Family) Sweep(minVars, maxVars int) ([]SweepPoint, error) {
	sel, err := f.path.Select(maxVars)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	rows := f.ds.Rows
	pred := make([]float64, len(rows))
	for n := minVars; n <= len(sel.Indices); n++ {
		cols := sel.Indices[:n]
		fit, err := f.path.Fit(n)
		if err != nil {
			continue
		}
		for i := range rows {
			pred[i] = predict(f.kind, f.ds.Set, fit, cols, &rows[i])
		}
		out = append(out, SweepPoint{
			Vars:       n,
			AdjR2:      fit.AdjR2,
			MeanAbsPct: regress.MeanAbsPctError(pred, f.y),
		})
	}
	return out, nil
}

// PairEval is one Figs. 9/10 column: a model (unified or per-pair) with its
// error distribution.
type PairEval struct {
	Label string // "(H-H)", …, or "unified"
	Box   regress.BoxStats
	Eval  *Eval
}

// PerPairComparisonWith trains one model per frequency pair (evaluated on
// that pair's rows) plus the unified model (evaluated on everything), in
// Table III row order with the unified model last — the layout of
// Figs. 9/10. ctx is checked before every selection step of every fit.
// unified is an already-trained unified model of the same dataset and
// kind, reused as the last column (pass nil to train one here). A
// campaign that has trained its Tables V/VI models passes them in, which
// saves one full-width forward selection per comparison — the single most
// expensive redundant step of a reproduction run.
func PerPairComparisonWith(ctx context.Context, ds *Dataset, kind Kind, maxVars int, unified *Model) ([]PairEval, error) {
	var out []PairEval
	for _, p := range clock.ValidPairs(ds.Spec) {
		rows := ds.RowsAtPair(p)
		m, err := TrainAtPair(ctx, ds, kind, maxVars, rows)
		if err != nil {
			return nil, err
		}
		ev := m.Evaluate(rows)
		out = append(out, PairEval{Label: p.String(), Box: ev.Box(), Eval: ev})
	}
	if unified == nil {
		var err error
		unified, err = TrainCtx(ctx, ds, kind, maxVars)
		if err != nil {
			return nil, err
		}
	}
	ev := unified.Evaluate(ds.Rows)
	out = append(out, PairEval{Label: "unified", Box: ev.Box(), Eval: ev})
	return out, nil
}
