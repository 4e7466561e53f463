package core

import (
	"context"
	"errors"
	"fmt"

	"gpuperf/internal/counters"
	"gpuperf/internal/regress"
)

// Kind selects which dependent variable a model predicts.
type Kind int

const (
	// Power is the Eq. 1 model: average wall power in watts.
	Power Kind = iota
	// Time is the Eq. 2 model: execution time in seconds.
	Time
)

// String names the model kind.
func (k Kind) String() string {
	if k == Power {
		return "power"
	}
	return "time"
}

// Model is one trained unified model (Eq. 1 or Eq. 2) for one board.
type Model struct {
	Kind      Kind
	Board     string
	Set       *counters.Set
	Selection *regress.Selection

	// naive marks a TrainNaive model, whose features ignore the clocks.
	naive bool
}

// featureAt maps one observation's counter i to its Eq. 1 / Eq. 2
// feature, scaled by the counter's clock domain:
//
// Power (Eq. 1):  feature_i = (counter_i / exectime) × domainGHz
// Time  (Eq. 2):  feature_i = counter_i / domainGHz
//
// Features are computed on demand, never stored per row: forward
// selection reads the design column by column (columns), and prediction
// touches only the model's selected counters, a small fraction of the set.
func featureAt(kind Kind, set *counters.Set, o *Observation, i int) float64 {
	freq := o.CoreGHz
	if set.Defs[i].Class == counters.MemEvent {
		freq = o.MemGHz
	}
	c := o.Counters[i]
	switch kind {
	case Power:
		// Per-second rate at this pair, scaled by domain frequency.
		if o.TimeS > 0 {
			return c / o.TimeS * freq
		}
		return 0
	default: // Time
		return c / freq
	}
}

// target extracts the dependent variable.
func target(kind Kind, o *Observation) float64 {
	if kind == Power {
		return o.PowerW
	}
	return o.TimeS
}

// targets extracts the dependent variable of every row.
func targets(kind Kind, rows []Observation) []float64 {
	y := make([]float64, len(rows))
	for i := range rows {
		y[i] = target(kind, &rows[i])
	}
	return y
}

// columns reads kind's design over rows column by column: column j holds
// featureAt(kind, set, row, j) down the rows, the values designMatrix lays
// out row by row.
func columns(kind Kind, set *counters.Set, rows []Observation) regress.ColumnSource {
	return func(j int, dst []float64) {
		for i := range rows {
			dst[i] = featureAt(kind, set, &rows[i], j)
		}
	}
}

// designMatrix builds the full (unselected) feature matrix and target
// vector over a row set, for the fits that need the design row by row
// (ridge, diagnostics).
func designMatrix(kind Kind, set *counters.Set, rows []Observation) (x [][]float64, y []float64) {
	x = make([][]float64, len(rows))
	// One backing allocation for all rows, subsliced: a campaign-sized
	// design matrix costs two allocations instead of len(rows)+1.
	n := set.Len()
	flat := make([]float64, len(rows)*n)
	for i := range rows {
		row := flat[i*n : (i+1)*n : (i+1)*n]
		for j := range set.Defs {
			row[j] = featureAt(kind, set, &rows[i], j)
		}
		x[i] = row
	}
	return x, targets(kind, rows)
}

// Train fits a unified model over every row of the dataset with forward
// selection up to maxVars variables (use MaxVariables for the paper's
// configuration).
func Train(ds *Dataset, kind Kind, maxVars int) (*Model, error) {
	return TrainCtx(context.Background(), ds, kind, maxVars)
}

// TrainCtx is Train with cooperative cancellation, checked between
// forward-selection steps. A cancelled training run returns the context's
// cause wrapped in the error.
func TrainCtx(ctx context.Context, ds *Dataset, kind Kind, maxVars int) (*Model, error) {
	f, err := NewFamily(ctx, ds, kind, maxVars)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	return f.Model(maxVars)
}

// Family is one (board, kind) modeling family of Section IV: one greedy
// forward-selection path over a dataset's Eq. 1 or Eq. 2 design. Every
// model of the family is read off that path — the capped unified model of
// Tables V–VIII and Figs. 5/6, 9/10 and 11 through Model, the Figs. 7/8
// points through Sweep — and each is bit-identical to training it on its
// own. The design itself is never stored: the path reads it column by
// column from the rows, and Sweep predicts from the rows.
type Family struct {
	ds   *Dataset
	kind Kind
	y    []float64
	path *regress.Path
}

// NewFamily grows one selection path of up to steps variables over the
// dataset's design for kind, checking ctx before each step. steps bounds
// every cap the family can answer: pass the largest of them.
func NewFamily(ctx context.Context, ds *Dataset, kind Kind, steps int) (*Family, error) {
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	y := targets(kind, ds.Rows)
	path, err := regress.ForwardPath(ctx, ds.Set.Len(), columns(kind, ds.Set, ds.Rows), y, steps)
	if err != nil {
		return nil, fmt.Errorf("core: training %s model for %s: %w", kind, ds.Board, err)
	}
	return &Family{ds: ds, kind: kind, y: y, path: path}, nil
}

// Release returns the family's pooled design and factorization, so the
// next family or selection reuses them; the family must not be used
// afterwards. Models and sweep points read off it stay valid.
func (f *Family) Release() { f.path.Release() }

// Model returns the unified model capped at maxVars variables, identical
// to TrainCtx(ctx, ds, kind, maxVars).
func (f *Family) Model(maxVars int) (*Model, error) {
	sel, err := f.path.Select(maxVars)
	if err != nil {
		return nil, fmt.Errorf("core: training %s model for %s: %w", f.kind, f.ds.Board, err)
	}
	return &Model{Kind: f.kind, Board: f.ds.Board, Set: f.ds.Set, Selection: sel}, nil
}

// TrainNaive fits a baseline model WITHOUT the paper's frequency coupling:
// power is regressed on raw per-second counter rates and time on raw counter
// totals, ignoring the programmed clocks entirely. It quantifies what Eq. 1
// and Eq. 2's frequency terms buy (the ablation bench of DESIGN.md §6): a
// naive model must average over frequency pairs it cannot distinguish. ctx
// is checked before each selection step, as in TrainCtx.
func TrainNaive(ctx context.Context, ds *Dataset, kind Kind, maxVars int) (*Model, error) {
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	// Neutralize the frequency terms by pretending both domains run at
	// 1 GHz; the features then degenerate to rates / totals.
	neutral := make([]Observation, len(ds.Rows))
	for i, o := range ds.Rows {
		o.CoreGHz, o.MemGHz = 1, 1
		neutral[i] = o
	}
	sel, err := regress.ForwardSelectColumns(ctx, ds.Set.Len(), columns(kind, ds.Set, neutral), targets(kind, neutral), maxVars)
	if err != nil {
		return nil, fmt.Errorf("core: training naive %s model for %s: %w", kind, ds.Board, err)
	}
	return &Model{Kind: kind, Board: ds.Board, Set: ds.Set, Selection: sel, naive: true}, nil
}

// RidgeError fits an all-variables ridge model (no selection, L2 penalty
// lambda) over the dataset and returns its adjusted R² and mean absolute
// percentage error — the "shrinkage instead of selection" baseline for the
// forward-selection ablation.
func RidgeError(ds *Dataset, kind Kind, lambda float64) (adjR2, meanAbsPct float64, err error) {
	if len(ds.Rows) == 0 {
		return 0, 0, errors.New("core: empty dataset")
	}
	x, y := designMatrix(kind, ds.Set, ds.Rows)
	fit, err := regress.Ridge(x, y, lambda)
	if err != nil {
		return 0, 0, err
	}
	pred := make([]float64, len(y))
	for i, row := range x {
		pred[i] = fit.Predict(row)
	}
	return fit.AdjR2, regress.MeanAbsPctError(pred, y), nil
}

// TrainAtPair fits a single-pair baseline model (the per-configuration
// models of Figs. 9 and 10) using only rows measured at pair p. ctx is
// checked before each selection step, as in TrainCtx.
func TrainAtPair(ctx context.Context, ds *Dataset, kind Kind, maxVars int, rows []Observation) (*Model, error) {
	if len(rows) == 0 {
		return nil, errors.New("core: no rows for pair model")
	}
	sel, err := regress.ForwardSelectColumns(ctx, ds.Set.Len(), columns(kind, ds.Set, rows), targets(kind, rows), maxVars)
	if err != nil {
		return nil, err
	}
	return &Model{Kind: kind, Board: ds.Board, Set: ds.Set, Selection: sel}, nil
}

// AdjR2 returns the adjusted coefficient of determination of the fit
// (Tables V and VI).
func (m *Model) AdjR2() float64 { return m.Selection.Fit.AdjR2 }

// Variables returns the selected counter names in selection order.
func (m *Model) Variables() []string {
	out := make([]string, len(m.Selection.Indices))
	for i, idx := range m.Selection.Indices {
		out[i] = m.Set.Defs[idx].Name
	}
	return out
}

// Predict evaluates the model on one observation (its Counters, clocks and
// — for the power model — measured or predicted TimeS must be set).
func (m *Model) Predict(o *Observation) float64 {
	if m.naive {
		neutral := *o
		neutral.CoreGHz, neutral.MemGHz = 1, 1
		o = &neutral
	}
	return predict(m.Kind, m.Set, m.Selection.Fit, m.Selection.Indices, o)
}

// predict evaluates fit, trained on the design columns cols, at one
// observation: the accumulation order of Fit.Predict over the projected
// row, computing only the selected features — no per-call allocation.
func predict(kind Kind, set *counters.Set, fit *regress.Fit, cols []int, o *Observation) float64 {
	y := fit.Intercept
	for j, c := range fit.Coef {
		if j < len(cols) {
			y += c * featureAt(kind, set, o, cols[j])
		}
	}
	return y
}

// Influence reports each selected variable's share of the model's output
// magnitude over a row set (Fig. 11): mean |coefficient × feature| per
// variable, normalized to sum to 1 together with the intercept.
type Influence struct {
	Variable string
	Share    float64
}

// Influences computes the Fig. 11 breakdown over the given rows.
func (m *Model) Influences(rows []Observation) []Influence {
	sums := make([]float64, len(m.Selection.Indices)+1) // + intercept
	for i := range rows {
		for k, idx := range m.Selection.Indices {
			v := m.Selection.Fit.Coef[k] * featureAt(m.Kind, m.Set, &rows[i], idx)
			if v < 0 {
				v = -v
			}
			sums[k] += v
		}
	}
	ic := m.Selection.Fit.Intercept * float64(len(rows))
	if ic < 0 {
		ic = -ic
	}
	sums[len(sums)-1] = ic

	var total float64
	for _, s := range sums {
		total += s
	}
	out := make([]Influence, 0, len(sums))
	for k, idx := range m.Selection.Indices {
		share := 0.0
		if total > 0 {
			share = sums[k] / total
		}
		out = append(out, Influence{Variable: m.Set.Defs[idx].Name, Share: share})
	}
	share := 0.0
	if total > 0 {
		share = sums[len(sums)-1] / total
	}
	out = append(out, Influence{Variable: "(intercept)", Share: share})
	return out
}
