// Package regress implements the statistical machinery of Section IV:
// ordinary least squares with R² / adjusted-R² reporting, greedy forward
// selection of explanatory variables (the paper caps selection at 10
// variables and sweeps 5–20 for Figs. 7 and 8), prediction-error metrics,
// and the box-and-whisker summaries of Figs. 9 and 10.
package regress

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"gpuperf/internal/linalg"
)

// Fit is one fitted linear model y ≈ intercept + Σ coef·x.
type Fit struct {
	Coef      []float64 // one per feature column
	Intercept float64
	R2        float64
	AdjR2     float64
	Residuals []float64
	N         int // observations
	P         int // features (excluding intercept)
}

// OLS fits y against the n×p feature matrix x (row per observation) with an
// intercept. It needs n > p+1 and full column rank.
func OLS(x [][]float64, y []float64) (*Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: OLS: %d rows vs %d targets", n, len(y))
	}
	p := len(x[0])
	if n <= p+1 {
		return nil, fmt.Errorf("regress: OLS: %d observations cannot support %d variables", n, p)
	}
	// Pooled: every cell is written below, and the matrix goes back to
	// the pool once the fit statistics are derived.
	a := linalg.GetMatrix(n, p+1)
	defer linalg.PutMatrix(a)
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("regress: OLS: ragged row %d", i)
		}
		a.Set(i, 0, 1)
		for j, v := range row {
			a.Set(i, j+1, v)
		}
	}
	beta, err := linalg.SolveLS(a, y)
	if err != nil {
		return nil, err
	}
	return olsFit(a, beta, y), nil
}

// olsFit derives the fit statistics of beta, the least-squares solution
// over the leading len(beta) columns of the design matrix a (intercept
// column first). Predictions sum the row prefix in column order, as
// Matrix.MulVec would over a copy of those columns.
func olsFit(a *linalg.Matrix, beta, y []float64) *Fit {
	n, w := a.Rows, len(beta)
	fit := &Fit{Intercept: beta[0], Coef: beta[1:], N: n, P: w - 1}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	var ssRes, ssTot float64
	fit.Residuals = make([]float64, n)
	for i := range y {
		var pred float64
		for j, v := range a.Data[i*a.Cols : i*a.Cols+w] {
			pred += v * beta[j]
		}
		r := y[i] - pred
		fit.Residuals[i] = r
		ssRes += r * r
		d := y[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		fit.R2, fit.AdjR2 = 1, 1
	} else {
		fit.R2 = 1 - ssRes/ssTot
		fit.AdjR2 = 1 - (1-fit.R2)*float64(n-1)/float64(n-w)
	}
	return fit
}

// Ridge fits y against x with an L2 penalty λ on the coefficients (the
// intercept is unpenalized): the textbook answer to the counter matrices'
// collinearity, provided as a robustness alternative to forward selection.
// It augments the design matrix with √λ·I rows and reuses the QR solver.
func Ridge(x [][]float64, y []float64, lambda float64) (*Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: Ridge: %d rows vs %d targets", n, len(y))
	}
	if lambda < 0 {
		return nil, fmt.Errorf("regress: Ridge: negative lambda %g", lambda)
	}
	if lambda == 0 {
		return OLS(x, y)
	}
	p := len(x[0])
	a := linalg.NewMatrix(n+p, p+1)
	b := make([]float64, n+p)
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("regress: Ridge: ragged row %d", i)
		}
		a.Set(i, 0, 1)
		for j, v := range row {
			a.Set(i, j+1, v)
		}
		b[i] = y[i]
	}
	root := math.Sqrt(lambda)
	for j := 0; j < p; j++ {
		a.Set(n+j, j+1, root) // penalty rows: √λ on each coefficient
	}
	beta, err := linalg.SolveLS(a, b)
	if err != nil {
		return nil, err
	}
	fit := &Fit{Intercept: beta[0], Coef: beta[1:], N: n, P: p}

	// Report goodness of fit over the data rows only.
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	var ssRes, ssTot float64
	fit.Residuals = make([]float64, n)
	for i, row := range x {
		pred := fit.Predict(row)
		r := y[i] - pred
		fit.Residuals[i] = r
		ssRes += r * r
		d := y[i] - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		fit.R2, fit.AdjR2 = 1, 1
	} else {
		fit.R2 = 1 - ssRes/ssTot
		fit.AdjR2 = 1 - (1-fit.R2)*float64(n-1)/float64(n-p-1)
	}
	return fit, nil
}

// Predict evaluates the model on one feature row.
func (f *Fit) Predict(features []float64) float64 {
	y := f.Intercept
	for j, c := range f.Coef {
		if j < len(features) {
			y += c * features[j]
		}
	}
	return y
}

// Step records the state of forward selection after adding one variable.
type Step struct {
	Added int // column index added at this step
	AdjR2 float64
	R2    float64
}

// Selection is the outcome of forward selection.
type Selection struct {
	Indices []int // selected column indices, in selection order
	Fit     *Fit  // fit over exactly len(Indices) variables
	Steps   []Step
}

// ErrNoUsableVariables is returned when not a single column produces a
// valid single-variable fit.
var ErrNoUsableVariables = errors.New("regress: no usable variables")

// ForwardSelect greedily grows a variable subset, at each step adding the
// column that maximizes adjusted R², up to maxVars variables. Selection
// continues to maxVars even if adjusted R² dips (the Fig. 7/8 sweeps need
// fits at every size); Best() recovers the paper's "optimal" model — the
// step with maximum adjusted R².
//
// It runs in two parts. ForwardPath is the greedy path: an incremental
// Gram–Schmidt scan whose candidate evaluation is fused into the
// projection pass of the step before. Path.Select is the cap selection:
// it refits the picks from one QR factorization of the path's columns,
// reading the fit over any leading run of picks as a prefix of that
// factorization (Path.Fit). A caller needing several caps of one design —
// the 10-variable model and the 5–20 variable sweep of Section IV — grows
// one path to the largest cap and selects each cap from it; every
// selection is bit-identical to ForwardSelect at that cap.
//
// x is row-major; ForwardSelect reads it through a ColumnSource. A caller
// that computes its design on demand, or must stop when its context is
// cancelled, uses ForwardSelectColumns or grows the path itself.
func ForwardSelect(x [][]float64, y []float64, maxVars int) (*Selection, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("regress: ForwardSelect: %d rows vs %d targets", len(x), len(y))
	}
	var p int
	if len(x) > 0 {
		p = len(x[0])
	}
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("regress: ForwardSelect: ragged row %d", i)
		}
	}
	return ForwardSelectColumns(context.Background(), p, rowColumns(x), y, maxVars)
}

// rowColumns reads a row-major design column by column.
func rowColumns(x [][]float64) ColumnSource {
	return func(j int, dst []float64) {
		for i, row := range x {
			dst[i] = row[j]
		}
	}
}

// ForwardSelectColumns is ForwardSelect over the p columns of a column
// source, checking ctx before each selection step: a cancelled selection
// returns the context's cause wrapped in the error.
func ForwardSelectColumns(ctx context.Context, p int, column ColumnSource, y []float64, maxVars int) (*Selection, error) {
	path, err := ForwardPath(ctx, p, column, y, maxVars)
	if err != nil {
		return nil, err
	}
	defer path.Release()
	return path.Select(maxVars)
}

// ColumnSource reads a design one column at a time: it writes column j's
// values, one per observation in target order, into dst. Forward
// selection works on columns, so a caller that computes its features on
// demand never holds the design row by row; a source must return the
// same values on every call.
type ColumnSource func(j int, dst []float64)

// Path is a greedy forward-selection path over one design: the columns in
// the order the scan picked them, the fit quality after each pick, and
// one QR factorization of the design [1, picked columns]. Because the
// picks are nested, the refit over the first k picks is a prefix of that
// factorization (see linalg.QR), so every cap up to the path's length is
// answered by back substitution rather than a new factorization. A Path
// is read-only once built and safe for concurrent use.
type Path struct {
	Indices []int  // picked column indices, in selection order
	Steps   []Step // state after each pick

	maxSteps int            // the cap the path was grown to
	y        []float64      // the target
	design   *linalg.Matrix // n×(len(Indices)+1): intercept, then the picks
	qr       *linalg.QR     // factorization of design against y
}

// ForwardPath grows the greedy path over the p columns of column for up
// to maxSteps picks; the design has one row per entry of y. The path owns
// its working copy: it reads every column once, centered in place, and
// reads the picks again to build its [1, picks] design, so a caller
// holding no copy of its own keeps one design's worth of memory alive.
// ctx is checked before each step (one step is a full O(p·n) candidate
// scan), so a cancelled training run stops at a step boundary and returns
// the cause wrapped in the error.
//
// Candidate evaluation is incremental rather than one OLS refit per
// candidate per step: the residual target and every unpicked column are
// kept orthogonal to the picked set (modified Gram–Schmidt, with the
// intercept projected out up front by centering), so a candidate's R²
// gain is (w·t)²/‖w‖². The scan is fused into the projection: the pass
// that projects a step's pick out of a candidate also accumulates the
// candidate's w·t and ‖w‖² against the updated target for the next step
// (the same operands in the same order as a separate scan), and the last
// step projects nothing. A step costs O(p·n) and the path
// O(maxSteps·p·n). Within a step every candidate's adjusted R² shares the
// same degrees-of-freedom factor, so maximizing the gain maximizes
// adjusted R²; ties resolve to the lowest column index. Steps and picks
// do not depend on maxSteps, so a longer path extends a shorter one.
func ForwardPath(ctx context.Context, p int, column ColumnSource, y []float64, maxSteps int) (*Path, error) {
	if maxSteps <= 0 {
		return nil, fmt.Errorf("regress: ForwardSelect: maxVars = %d", maxSteps)
	}
	n := len(y)
	if n == 0 {
		return nil, errors.New("regress: ForwardSelect: no observations")
	}

	// Column-major working copy, centered: mean-free columns and target
	// are already orthogonal to the intercept.
	flat := make([]float64, p*n)
	cols := make([][]float64, p)
	norm0 := make([]float64, p) // squared norm of each centered column
	for j := range cols {
		w := flat[j*n : (j+1)*n]
		cols[j] = w
		column(j, w)
		var mean float64
		for _, v := range w {
			mean += v
		}
		mean /= float64(n)
		var ss float64
		for i := range w {
			w[i] -= mean
			ss += w[i] * w[i]
		}
		norm0[j] = ss
	}
	var ymean float64
	for _, v := range y {
		ymean += v
	}
	ymean /= float64(n)
	t := make([]float64, n) // residual target, orthogonal to the picks
	var ssTot float64
	for i, v := range y {
		t[i] = v - ymean
		ssTot += t[i] * t[i]
	}

	// A candidate whose orthogonalized component has lost (almost) all of
	// its original mass is numerically in the span of the picked set.
	const tol = 1e-10

	path := &Path{maxSteps: maxSteps, y: y}
	used := make([]bool, p)
	// Each candidate's w·t and ‖w‖² against the current picks: a full
	// scan before the first step, then kept by the projection passes.
	dot, ww := make([]float64, p), make([]float64, p)
	for k := 0; k < maxSteps && k < p; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("regress: forward selection cancelled: %w", context.Cause(ctx))
		}
		if n <= k+2 {
			break // one more variable would exhaust the observations
		}
		if k == 0 {
			for j, w := range cols {
				if norm0[j] == 0 {
					continue
				}
				var d, s float64
				for i, wi := range w {
					d += wi * t[i]
					s += wi * wi
				}
				dot[j], ww[j] = d, s
			}
		}
		bestJ := -1
		var bestGain float64
		for j := 0; j < p; j++ {
			if used[j] || norm0[j] == 0 || ww[j] <= tol*norm0[j] {
				continue // a collinear candidate is skipped
			}
			gain := dot[j] * dot[j] / ww[j]
			if bestJ < 0 || gain > bestGain {
				bestJ, bestGain = j, gain
			}
		}
		if bestJ < 0 {
			break
		}

		// Project the pick out of the target, reporting fit quality from
		// the residual. The pick's w·t and ‖w‖² are already in hand.
		u := cols[bestJ]
		invUU := 1 / ww[bestJ]
		c := dot[bestJ] * invUU
		var rss float64
		for i, v := range u {
			t[i] -= c * v
			rss += t[i] * t[i]
		}
		used[bestJ] = true
		path.Indices = append(path.Indices, bestJ)
		r2, adj := 1.0, 1.0
		if ssTot > 0 {
			r2 = 1 - rss/ssTot
			adj = 1 - (1-r2)*float64(n-1)/float64(n-k-2)
		}
		path.Steps = append(path.Steps, Step{Added: bestJ, AdjR2: adj, R2: r2})

		if k+1 == maxSteps || k+1 == p || n <= k+3 {
			break // no next step: leave the candidates unprojected
		}
		// Project the pick out of every remaining candidate, scanning it
		// for the next step in the same pass.
		for j, w := range cols {
			if used[j] || norm0[j] == 0 {
				continue
			}
			var uw float64
			for i, v := range u {
				uw += v * w[i]
			}
			cj := uw * invUU
			var d, s float64
			for i, v := range u {
				w[i] -= cj * v
				d += w[i] * t[i]
				s += w[i] * w[i]
			}
			dot[j], ww[j] = d, s
		}
	}
	if len(path.Indices) == 0 {
		return nil, ErrNoUsableVariables
	}

	// Factor the design over every pick once; each refit below is a
	// prefix of it. The path stops two picks short of the observations,
	// so the design is never wider than it is tall. The working copy is
	// spent, so its first column buffers each pick as it is read again.
	path.design = linalg.GetMatrix(n, len(path.Indices)+1)
	for i := 0; i < n; i++ {
		path.design.Set(i, 0, 1)
	}
	buf := flat[:n]
	for k, c := range path.Indices {
		column(c, buf)
		for i, v := range buf {
			path.design.Set(i, k+1, v)
		}
	}
	qr, err := linalg.Factor(path.design, y)
	if err != nil {
		linalg.PutMatrix(path.design)
		return nil, err
	}
	path.qr = qr
	return path, nil
}

// Fit returns the least-squares fit over the path's first k picks with an
// intercept, bit-identical to OLS(Project(x, Indices[:k]), y): the same
// factorization steps and back substitution, read off the path's one
// factorization.
func (p *Path) Fit(k int) (*Fit, error) {
	if k < 0 || k > len(p.Indices) {
		return nil, fmt.Errorf("regress: Path.Fit: %d variables outside [0, %d]", k, len(p.Indices))
	}
	beta, err := p.qr.Solve(k + 1)
	if err != nil {
		return nil, err
	}
	return olsFit(p.design, beta, p.y), nil
}

// Select returns the path's cap-maxVars selection, bit-identical to
// ForwardSelect(x, y, maxVars) on the path's design: the first maxVars
// picks, refit by QR. If accumulated orthogonalization error let a
// dependent column through, trailing picks are dropped until the refit
// is full-rank — mirroring the per-candidate skip of a per-fit
// implementation. Each returned selection counts as one forward
// selection in the regress_forward_* metrics. maxVars may not exceed the
// cap the path was grown to.
func (p *Path) Select(maxVars int) (*Selection, error) {
	if maxVars <= 0 {
		return nil, fmt.Errorf("regress: ForwardSelect: maxVars = %d", maxVars)
	}
	if maxVars > p.maxSteps {
		return nil, fmt.Errorf("regress: Path.Select: cap %d beyond the path's %d steps", maxVars, p.maxSteps)
	}
	for k := min(maxVars, len(p.Indices)); k > 0; k-- {
		fit, err := p.Fit(k)
		if err != nil {
			continue
		}
		sel := &Selection{Indices: p.Indices[:k:k], Steps: p.Steps[:k:k], Fit: fit}
		observeSelection(sel)
		return sel, nil
	}
	return nil, ErrNoUsableVariables
}

// Release returns the path's pooled design and factorization to their
// pools; the path must not be used afterwards. Selections and fits read
// off it stay valid: they hold no pooled memory.
func (p *Path) Release() {
	p.qr.Release()
	linalg.PutMatrix(p.design)
}

// Best returns the number of variables (1-based) at which adjusted R²
// peaked during selection.
func (s *Selection) Best() int {
	best, bestAdj := 1, math.Inf(-1)
	for i, st := range s.Steps {
		if st.AdjR2 > bestAdj {
			best, bestAdj = i+1, st.AdjR2
		}
	}
	return best
}

// subset projects rows of x onto the chosen columns.
func subset(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(cols))
		for k, c := range cols {
			r[k] = row[c]
		}
		out[i] = r
	}
	return out
}

// Project is the exported form of subset for callers that need to evaluate
// a Selection's fit on new data.
func Project(x [][]float64, cols []int) [][]float64 { return subset(x, cols) }

// MeanAbsError returns mean |pred − actual|.
func MeanAbsError(pred, actual []float64) float64 {
	if len(pred) == 0 || len(pred) != len(actual) {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - actual[i])
	}
	return s / float64(len(pred))
}

// MeanAbsPctError returns the mean of |pred − actual| / actual × 100,
// the error metric of Tables VII and VIII.
func MeanAbsPctError(pred, actual []float64) float64 {
	if len(pred) == 0 || len(pred) != len(actual) {
		return math.NaN()
	}
	var s float64
	var n int
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n) * 100
}

// BoxStats is a five-number summary for the box-and-whisker plots of
// Figs. 9 and 10.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box computes the five-number summary of values.
func Box(values []float64) BoxStats {
	if len(values) == 0 {
		return BoxStats{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return BoxStats{
		Min:    v[0],
		Q1:     quantile(v, 0.25),
		Median: quantile(v, 0.5),
		Q3:     quantile(v, 0.75),
		Max:    v[len(v)-1],
	}
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
