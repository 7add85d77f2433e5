package causal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// lingamPair generates y = coef*x + noise with uniform (non-Gaussian) x.
func lingamPair(rng *rand.Rand, n int, coef float64) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1 // uniform: non-Gaussian
		y[i] = coef*x[i] + 0.2*(rng.Float64()*2-1)
	}
	return x, y
}

func TestCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := lingamPair(rng, 5000, 1)
	if c := Coefficient(x, y); c < 0.9 {
		t.Errorf("strongly coupled pair coefficient = %g, want >0.9", c)
	}
	z := make([]float64, 5000)
	for i := range z {
		z[i] = rng.Float64()
	}
	if c := Coefficient(x, z); c > 0.1 {
		t.Errorf("independent pair coefficient = %g, want ≈0", c)
	}
	if Coefficient(nil, nil) != 0 {
		t.Error("degenerate input should be 0")
	}
}

func TestPairCoefficientCategorical(t *testing.T) {
	// race perfectly determines zip → coefficient magnitude near 1.
	race := []string{"A", "A", "W", "W", "A", "W", "A", "W"}
	zip := []string{"01004", "01004", "01101", "01101", "01004", "01101", "01004", "01101"}
	d := dataset.New().
		MustAddCategorical("race", race).
		MustAddCategorical("zip", zip)
	if c := PairCoefficient(d, "race", "zip"); math.Abs(c-1) > 1e-9 {
		t.Errorf("deterministic pair coeff = %g, want 1", c)
	}
}

func TestPairCoefficientWithNulls(t *testing.T) {
	d := dataset.New()
	if err := d.AddNumericColumn("a", []float64{1, 2, 3, 4}, []bool{false, true, false, false}); err != nil {
		t.Fatal(err)
	}
	d.MustAddNumeric("b", []float64{1, 2, 3, 4})
	// Should not panic; NULL imputed with mean.
	c := PairCoefficient(d, "a", "b")
	if c < 0 || c > 1 {
		t.Errorf("coefficient out of range: %g", c)
	}
	if PairCoefficient(d, "a", "missing") != 0 {
		t.Error("missing attribute should yield 0")
	}
}
