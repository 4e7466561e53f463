package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromRowsAndAccessors(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims %d×%d, want 3×2", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 || m.At(2, 1) != 6 {
		t.Error("At returned wrong elements")
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Error("Set did not stick")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Error("Clone aliases the original")
	}
}

func TestFromRowsRejectsBadInput(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should fail")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("FromRows with ragged rows should fail")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Error("MulVec with wrong length should fail")
	}
}

func TestSolveLSExactSquare(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveLS(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !close(x[0], 1) || !close(x[1], 3) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLSOverdetermined(t *testing.T) {
	// Fit y = 2 + 3t over noisy-free samples: exact recovery.
	var rows [][]float64
	var b []float64
	for i := 0; i < 20; i++ {
		tt := float64(i)
		rows = append(rows, []float64{1, tt})
		b = append(b, 2+3*tt)
	}
	a, _ := FromRows(rows)
	x, err := SolveLS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !close(x[0], 2) || !close(x[1], 3) {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

func TestSolveLSLeastSquaresProperty(t *testing.T) {
	// Property: the residual of the LS solution is orthogonal to the
	// column space (within tolerance), i.e. no perturbation of x lowers
	// the residual norm.
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		m, n := 30, 4
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLS(a, b)
		if err != nil {
			return false
		}
		base := residualNorm(a, x, b)
		for j := 0; j < n; j++ {
			for _, eps := range []float64{1e-4, -1e-4} {
				xp := append([]float64(nil), x...)
				xp[j] += eps
				if residualNorm(a, xp, b) < base-1e-10 {
					return false
				}
			}
		}
		return true
	}
	for i := 0; i < 25; i++ {
		if !f() {
			t.Fatal("found perturbation reducing LS residual")
		}
	}
}

func TestSolveLSRejectsRankDeficient(t *testing.T) {
	// Two identical columns.
	a, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := SolveLS(a, []float64{1, 2, 3}); err == nil {
		t.Error("SolveLS accepted rank-deficient system")
	}
	// Zero column.
	z, _ := FromRows([][]float64{{1, 0}, {2, 0}, {3, 0}})
	if _, err := SolveLS(z, []float64{1, 2, 3}); err == nil {
		t.Error("SolveLS accepted zero column")
	}
}

func TestSolveLSRejectsBadShapes(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}})
	if _, err := SolveLS(a, []float64{1}); err == nil {
		t.Error("SolveLS accepted underdetermined system")
	}
	b, _ := FromRows([][]float64{{1}, {2}})
	if _, err := SolveLS(b, []float64{1}); err == nil {
		t.Error("SolveLS accepted mismatched rhs length")
	}
}

func TestSolveLSRecoversRandomModelsProperty(t *testing.T) {
	// Property: for well-conditioned random A and x*, SolveLS(A, A·x*)
	// recovers x*.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 40, 5
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64() + 0.1
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64() * 10
		}
		b, _ := a.MulVec(want)
		got, err := SolveLS(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func residualNorm(a *Matrix, x, b []float64) float64 {
	y, _ := a.MulVec(x)
	var s float64
	for i := range y {
		d := y[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func close(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// tallDesign draws an m×n design whose columns share a common factor, as
// the counter matrices' do, plus a right-hand side.
func tallDesign(rng *rand.Rand, m, n int) (*Matrix, []float64) {
	a := NewMatrix(m, n)
	for i := 0; i < m; i++ {
		common := rng.NormFloat64()
		for j := 0; j < n; j++ {
			a.Set(i, j, common*float64(j+1)+0.3*rng.NormFloat64())
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	return a, b
}

// prefixCopy copies A's first k columns into a matrix of their own.
func prefixCopy(a *Matrix, k int) *Matrix {
	out := NewMatrix(a.Rows, k)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*k:(i+1)*k], a.Data[i*a.Cols:i*a.Cols+k])
	}
	return out
}

// checkPrefixes requires every prefix solve of one factorization of a to
// equal SolveLS on a copy of that prefix, bit for bit, errors included.
func checkPrefixes(t *testing.T, a *Matrix, b []float64) {
	t.Helper()
	q, err := Factor(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= a.Cols; k++ {
		got, gerr := q.Solve(k)
		want, werr := SolveLS(prefixCopy(a, k), b)
		if !errors.Is(gerr, werr) {
			t.Fatalf("%d×%d prefix %d: Solve error %v, SolveLS error %v", a.Rows, a.Cols, k, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d×%d prefix %d: %d coefficients, want %d", a.Rows, a.Cols, k, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%d×%d prefix %d: x[%d] = %v, SolveLS gives %v", a.Rows, a.Cols, k, j, got[j], want[j])
			}
		}
	}
}

// TestSolvePrefixMatchesSolveLS: one factorization answers every leading
// prefix of a tall design exactly as factoring that prefix alone does.
func TestSolvePrefixMatchesSolveLS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 21; n++ {
		for trial := 0; trial < 3; trial++ {
			a, b := tallDesign(rng, n+2+rng.Intn(60), n)
			checkPrefixes(t, a, b)
		}
	}
}

// TestSolvePrefixRankDeficient: a zero column, or one duplicating an
// earlier column, fails every prefix that includes it with
// ErrRankDeficient, as SolveLS does, and leaves the shorter prefixes
// exact.
func TestSolvePrefixRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const m, n = 40, 8
	for j := 1; j < n; j++ {
		for _, dup := range []bool{false, true} {
			a, b := tallDesign(rng, m, n)
			src := rng.Intn(j)
			for i := 0; i < m; i++ {
				v := 0.0
				if dup {
					v = a.At(i, src)
				}
				a.Set(i, j, v)
			}
			checkPrefixes(t, a, b)
			q, err := Factor(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= n; k++ {
				_, err := q.Solve(k)
				if deficient := errors.Is(err, ErrRankDeficient); deficient != (k > j) {
					t.Errorf("column %d (dup=%v), prefix %d: Solve error %v", j, dup, k, err)
				}
			}
		}
	}
}

// BenchmarkSolveLS times one least-squares solve at the shape of a
// 10-variable Section IV refit: ~800 observations, intercept plus ten
// correlated columns.
func BenchmarkSolveLS(b *testing.B) {
	a, rhs := tallDesign(rand.New(rand.NewSource(1)), 798, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := SolveLS(a, rhs)
		if err != nil {
			b.Fatal(err)
		}
		solveSink = x
	}
}

// solveSink keeps BenchmarkSolveLS's result live.
var solveSink []float64
