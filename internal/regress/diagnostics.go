package regress

import (
	"fmt"
	"math"

	"gpuperf/internal/linalg"
)

// Diagnostics the paper's statistical methodology quietly depends on: the
// performance counters are highly collinear by construction (subpartition
// splits, issue-slot breakdowns), which is why naive all-variables fits
// are unstable and forward selection matters. VIF quantifies that
// collinearity; standardized coefficients make selected variables
// comparable across scales (the Fig. 11 interpretation).

// VIF returns the variance inflation factor of each column of x: the
// factor by which collinearity with the other columns inflates that
// coefficient's variance. VIF ≈ 1 means independent; > 10 is the usual
// "severely collinear" rule of thumb. Columns whose auxiliary regression
// fails (constant or exactly dependent) report +Inf.
func VIF(x [][]float64) ([]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("regress: VIF: no observations")
	}
	p := len(x[0])
	if p < 2 {
		return nil, fmt.Errorf("regress: VIF needs at least two columns")
	}
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		// Regress column j on the remaining columns.
		yj := make([]float64, len(x))
		xj := make([][]float64, len(x))
		for i, row := range x {
			yj[i] = row[j]
			rest := make([]float64, 0, p-1)
			for k, v := range row {
				if k != j {
					rest = append(rest, v)
				}
			}
			xj[i] = rest
		}
		fit, err := OLS(xj, yj)
		if err != nil {
			out[j] = math.Inf(1)
			continue
		}
		if fit.R2 >= 1 {
			out[j] = math.Inf(1)
			continue
		}
		out[j] = 1 / (1 - fit.R2)
	}
	return out, nil
}

// StandardizedCoef returns beta-weights: coefficients rescaled by the
// predictor/target standard deviations so their magnitudes are comparable
// regardless of counter units.
func (f *Fit) StandardizedCoef(x [][]float64, y []float64) ([]float64, error) {
	if len(x) != f.N || len(y) != f.N {
		return nil, fmt.Errorf("regress: standardized coefficients need the training data")
	}
	sy := stddev(y)
	if sy == 0 {
		return nil, fmt.Errorf("regress: constant target")
	}
	out := make([]float64, len(f.Coef))
	col := make([]float64, len(x))
	for j := range f.Coef {
		for i, row := range x {
			col[i] = row[j]
		}
		out[j] = f.Coef[j] * stddev(col) / sy
	}
	return out, nil
}

// ConditionNumber estimates the design matrix's 2-norm condition number via
// the ratio of extreme singular values, computed by power iteration on
// XᵀX (adequate for diagnostics). Columns are standardized first so the
// answer reflects collinearity, not units.
func ConditionNumber(x [][]float64) (float64, error) {
	n := len(x)
	if n == 0 {
		return 0, fmt.Errorf("regress: no observations")
	}
	p := len(x[0])
	if p < 2 {
		return 0, fmt.Errorf("regress: need at least two columns")
	}
	// Standardize columns.
	std := make([][]float64, n)
	for i := range std {
		std[i] = make([]float64, p)
	}
	col := make([]float64, n)
	for j := 0; j < p; j++ {
		var mean float64
		for i := range x {
			col[i] = x[i][j]
			mean += col[i]
		}
		mean /= float64(n)
		sd := stddev(col)
		if sd == 0 {
			return math.Inf(1), nil
		}
		for i := range x {
			std[i][j] = (x[i][j] - mean) / sd
		}
	}
	// Gram matrix G = XᵀX (p×p).
	g := linalg.NewMatrix(p, p)
	for a := 0; a < p; a++ {
		for b := a; b < p; b++ {
			var s float64
			for i := 0; i < n; i++ {
				s += std[i][a] * std[i][b]
			}
			g.Set(a, b, s)
			g.Set(b, a, s)
		}
	}
	lamMax := powerIterate(g, nil)
	if lamMax <= 0 {
		return math.Inf(1), nil
	}
	// Smallest eigenvalue via shifted iteration on (λmax·I − G).
	shifted := linalg.NewMatrix(p, p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			v := -g.At(a, b)
			if a == b {
				v += lamMax
			}
			shifted.Set(a, b, v)
		}
	}
	lamMin := lamMax - powerIterate(shifted, nil)
	if lamMin <= 1e-12 {
		return math.Inf(1), nil
	}
	return math.Sqrt(lamMax / lamMin), nil
}

// powerIterate returns the dominant eigenvalue of a symmetric PSD matrix.
func powerIterate(m *linalg.Matrix, start []float64) float64 {
	p := m.Cols
	v := start
	if v == nil {
		// Deterministic but asymmetric start: a symmetric start can be
		// exactly orthogonal to the dominant eigenvector (e.g. of the
		// shifted matrix in ConditionNumber) and stall the iteration.
		v = make([]float64, p)
		var norm float64
		for i := range v {
			v[i] = 1 / float64(i+1)
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
	}
	var lam float64
	for it := 0; it < 200; it++ {
		w, err := m.MulVec(v)
		if err != nil {
			return 0
		}
		var norm float64
		for _, x := range w {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range w {
			w[i] /= norm
		}
		newLam := norm
		if math.Abs(newLam-lam) < 1e-12*math.Max(1, lam) {
			return newLam
		}
		lam = newLam
		v = w
	}
	return lam
}

func stddev(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var ss float64
	for _, x := range v {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(v)-1))
}
