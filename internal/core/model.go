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

// featureRow maps one observation to the Eq. 1 / Eq. 2 feature vector: one
// feature per counter, scaled by its clock domain.
//
// Power (Eq. 1):  feature_i = (counter_i / exectime) × domainGHz
// Time  (Eq. 2):  feature_i = counter_i / domainGHz
func featureRow(kind Kind, set *counters.Set, o *Observation) []float64 {
	out := make([]float64, set.Len())
	for i := range set.Defs {
		out[i] = featureAt(kind, set, o, i)
	}
	return out
}

// featureAt computes one entry of featureRow without materializing the
// row — the prediction hot path only touches the model's selected columns,
// a small fraction of the counter set.
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

// designMatrix builds the full (unselected) feature matrix and target
// vector over a row set.
func designMatrix(kind Kind, set *counters.Set, rows []Observation) (x [][]float64, y []float64) {
	x = make([][]float64, len(rows))
	y = make([]float64, len(rows))
	// One backing allocation for all rows, subsliced: the values are
	// identical to per-row featureRow calls, but a campaign-sized design
	// matrix costs two allocations instead of len(rows)+1.
	n := set.Len()
	flat := make([]float64, len(rows)*n)
	for i := range rows {
		row := flat[i*n : (i+1)*n : (i+1)*n]
		for j := range set.Defs {
			row[j] = featureAt(kind, set, &rows[i], j)
		}
		x[i] = row
		y[i] = target(kind, &rows[i])
	}
	return x, y
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
	return f.Model(maxVars)
}

// Family is one (board, kind) modeling family of Section IV: a dataset's
// Eq. 1 or Eq. 2 design matrix, built once, and one greedy
// forward-selection path over it. Every model of the family is read off
// that path — the capped unified model of Tables V–VIII and Figs. 5/6,
// 9/10 and 11 through Model, the Figs. 7/8 points through Sweep — and
// each is bit-identical to training it on its own.
type Family struct {
	ds   *Dataset
	kind Kind
	x    [][]float64
	y    []float64
	path *regress.Path
}

// NewFamily builds the dataset's design matrix for kind and grows one
// selection path of up to steps variables, checking ctx before each step.
// steps bounds every cap the family can answer: pass the largest of them.
func NewFamily(ctx context.Context, ds *Dataset, kind Kind, steps int) (*Family, error) {
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	x, y := designMatrix(kind, ds.Set, ds.Rows)
	path, err := regress.ForwardPath(ctx, x, y, steps)
	if err != nil {
		return nil, fmt.Errorf("core: training %s model for %s: %w", kind, ds.Board, err)
	}
	return &Family{ds: ds, kind: kind, x: x, y: y, path: path}, nil
}

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
// naive model must average over frequency pairs it cannot distinguish.
func TrainNaive(ds *Dataset, kind Kind, maxVars int) (*Model, error) {
	if len(ds.Rows) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	x := make([][]float64, len(ds.Rows))
	y := make([]float64, len(ds.Rows))
	for i := range ds.Rows {
		o := &ds.Rows[i]
		// Neutralize the frequency terms by pretending both domains run
		// at 1 GHz; featureRow then degenerates to rates / totals.
		neutral := *o
		neutral.CoreGHz, neutral.MemGHz = 1, 1
		x[i] = featureRow(kind, ds.Set, &neutral)
		y[i] = target(kind, o)
	}
	sel, err := regress.ForwardSelect(x, y, maxVars)
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
// models of Figs. 9 and 10) using only rows measured at pair p.
func TrainAtPair(ds *Dataset, kind Kind, maxVars int, rows []Observation) (*Model, error) {
	if len(rows) == 0 {
		return nil, errors.New("core: no rows for pair model")
	}
	x, y := designMatrix(kind, ds.Set, rows)
	sel, err := regress.ForwardSelect(x, y, maxVars)
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
	// Same accumulation order as Fit.Predict over the projected row, but
	// computing only the selected features — no per-call allocation.
	f := m.Selection.Fit
	idxs := m.Selection.Indices
	y := f.Intercept
	for j, c := range f.Coef {
		if j < len(idxs) {
			y += c * featureAt(m.Kind, m.Set, o, idxs[j])
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
