package regress

import (
	"math"
	"math/rand"
	"testing"
)

func independentColumns(n int, rng *rand.Rand) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		x[i] = []float64{a, b}
		y[i] = 2*a - b + 0.1*rng.NormFloat64()
	}
	return x, y
}

func TestVIFIndependentColumnsNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, _ := independentColumns(500, rng)
	vifs, err := VIF(x)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range vifs {
		if v < 1 || v > 1.1 {
			t.Errorf("VIF[%d] = %g, want ≈ 1 for independent columns", j, v)
		}
	}
}

func TestVIFDetectsCollinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([][]float64, 300)
	for i := range x {
		a := rng.NormFloat64()
		// Column 1 is column 0 plus small noise: severe collinearity.
		x[i] = []float64{a, a + 0.01*rng.NormFloat64(), rng.NormFloat64()}
	}
	vifs, err := VIF(x)
	if err != nil {
		t.Fatal(err)
	}
	if vifs[0] < 10 || vifs[1] < 10 {
		t.Errorf("collinear columns have VIF %g, %g; want ≫ 10", vifs[0], vifs[1])
	}
	if vifs[2] > 2 {
		t.Errorf("independent column VIF %g, want small", vifs[2])
	}
}

func TestVIFExactDependenceIsInf(t *testing.T) {
	x := make([][]float64, 50)
	for i := range x {
		a := float64(i)
		x[i] = []float64{a, 2 * a}
	}
	vifs, err := VIF(x)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(vifs[0], 1) || !math.IsInf(vifs[1], 1) {
		t.Errorf("exactly dependent columns should report +Inf, got %v", vifs)
	}
}

func TestVIFErrors(t *testing.T) {
	if _, err := VIF(nil); err == nil {
		t.Error("VIF(nil) accepted")
	}
	if _, err := VIF([][]float64{{1}}); err == nil {
		t.Error("single-column VIF accepted")
	}
}

func TestStandardizedCoefOrdering(t *testing.T) {
	// y depends strongly on col 0 and weakly on col 1 after
	// standardization, even though the raw coefficient of col 1 is huge
	// (tiny-scale column).
	rng := rand.New(rand.NewSource(3))
	x := make([][]float64, 400)
	y := make([]float64, 400)
	for i := range x {
		a := rng.NormFloat64()
		b := rng.NormFloat64() * 1e-4 // tiny scale
		x[i] = []float64{a, b}
		y[i] = 3*a + 100*b + 0.1*rng.NormFloat64()
	}
	fit, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	std, err := fit.StandardizedCoef(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(std[0]) <= math.Abs(std[1]) {
		t.Errorf("standardized |beta0| %g should dominate |beta1| %g", std[0], std[1])
	}
	if math.Abs(fit.Coef[1]) <= math.Abs(fit.Coef[0]) {
		t.Errorf("raw coefficient of the tiny column should be large (%g vs %g)", fit.Coef[1], fit.Coef[0])
	}
	if _, err := fit.StandardizedCoef(x[:10], y[:10]); err == nil {
		t.Error("mismatched data accepted")
	}
}

func TestConditionNumber(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	indep, _ := independentColumns(500, rng)
	cIndep, err := ConditionNumber(indep)
	if err != nil {
		t.Fatal(err)
	}
	if cIndep < 1 || cIndep > 2 {
		t.Errorf("independent columns condition number %g, want ≈ 1", cIndep)
	}

	collinear := make([][]float64, 300)
	for i := range collinear {
		a := rng.NormFloat64()
		collinear[i] = []float64{a, a + 0.001*rng.NormFloat64()}
	}
	cColl, err := ConditionNumber(collinear)
	if err != nil {
		t.Fatal(err)
	}
	if cColl < 100 {
		t.Errorf("collinear condition number %g, want large", cColl)
	}
	if _, err := ConditionNumber(nil); err == nil {
		t.Error("ConditionNumber(nil) accepted")
	}
}

func TestRidgeShrinksCollinearCoefficients(t *testing.T) {
	// Two nearly identical columns: OLS splits the true coefficient
	// arbitrarily (huge opposite-signed pair is typical); ridge shares it.
	rng := rand.New(rand.NewSource(9))
	var x [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		a := rng.NormFloat64()
		x = append(x, []float64{a, a + 1e-6*rng.NormFloat64()})
		y = append(y, 4*a+0.01*rng.NormFloat64())
	}
	ols, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := Ridge(x, y, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	olsNorm := math.Abs(ols.Coef[0]) + math.Abs(ols.Coef[1])
	ridgeNorm := math.Abs(ridge.Coef[0]) + math.Abs(ridge.Coef[1])
	if ridgeNorm >= olsNorm {
		t.Errorf("ridge coefficient norm %g not below OLS %g", ridgeNorm, olsNorm)
	}
	// Ridge still fits well and the shared coefficients sum to ≈ 4.
	if ridge.R2 < 0.99 {
		t.Errorf("ridge R² %g too low", ridge.R2)
	}
	if s := ridge.Coef[0] + ridge.Coef[1]; math.Abs(s-4) > 0.2 {
		t.Errorf("ridge coefficient sum %g, want ≈ 4", s)
	}
}

func TestRidgeLambdaZeroIsOLS(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := independentColumns(100, rng)
	a, err := Ridge(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OLS(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Coef {
		if math.Abs(a.Coef[j]-b.Coef[j]) > 1e-12 {
			t.Errorf("Ridge(0) coef %d = %g differs from OLS %g", j, a.Coef[j], b.Coef[j])
		}
	}
	if _, err := Ridge(x, y, -1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestRidgeHandlesExactDependence(t *testing.T) {
	// Exactly dependent columns break OLS but not ridge.
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		a := float64(i%7) - 3
		x = append(x, []float64{a, 2 * a})
		y = append(y, a)
	}
	if _, err := OLS(x, y); err == nil {
		t.Fatal("OLS should reject exactly dependent columns")
	}
	fit, err := Ridge(x, y, 0.5)
	if err != nil {
		t.Fatalf("ridge failed on dependent columns: %v", err)
	}
	if fit.R2 < 0.95 {
		t.Errorf("ridge R² %g too low on a noiseless target", fit.R2)
	}
}
