package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 4, 1e-12)
	approx(t, "StdDev", StdDev(xs), 2, 1e-12)
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) {
		t.Error("empty-slice moments should be NaN")
	}
}

// minMax returns the smallest and largest values in xs, seeded by the first
// element, or (NaN, NaN) for an empty slice: the flat reference Moments'
// extrema are checked against.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func TestMinMax(t *testing.T) {
	lo, hi := minMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("minMax = %g,%g", lo, hi)
	}
	lo, hi = minMax(nil)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("minMax on empty should be NaN")
	}
}

func TestMedianQuantile(t *testing.T) {
	approx(t, "Median odd", QuantileSorted([]float64{1, 3, 5}, 0.5), 3, 1e-12)
	approx(t, "Median even", QuantileSorted([]float64{1, 2, 3, 4}, 0.5), 2.5, 1e-12)
	xs := []float64{10, 20, 30, 40, 50}
	approx(t, "Q0", QuantileSorted(xs, 0), 10, 1e-12)
	approx(t, "Q1", QuantileSorted(xs, 1), 50, 1e-12)
	approx(t, "Q0.25", QuantileSorted(xs, 0.25), 20, 1e-12)
	approx(t, "Q0.1", QuantileSorted(xs, 0.1), 14, 1e-12)
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("QuantileSorted on empty should be NaN")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	approx(t, "perfect +", Pearson(x, y), 1, 1e-12)
	yNeg := []float64{10, 8, 6, 4, 2}
	approx(t, "perfect -", Pearson(x, yNeg), -1, 1e-12)
	if Pearson(x, []float64{3, 3, 3, 3, 3}) != 0 {
		t.Error("constant y should give r=0")
	}
	if Pearson(x, []float64{1, 2}) != 0 {
		t.Error("length mismatch should give r=0")
	}
	// A known hand-computable case.
	a := []float64{1, 2, 3, 4, 5, 6}
	b := []float64{2, 1, 4, 3, 6, 5}
	approx(t, "shuffled pairs", Pearson(a, b), 0.8285714, 1e-4)
}

func TestPearsonPValue(t *testing.T) {
	// Strong correlation with decent n → tiny p; r=0 → p=1.
	if p := PearsonPValue(0.99, 50); p > 1e-10 {
		t.Errorf("p for r=.99,n=50 = %g, want ≈0", p)
	}
	if p := PearsonPValue(0, 50); math.Abs(p-1) > 1e-9 {
		t.Errorf("p for r=0 = %g, want 1", p)
	}
	if p := PearsonPValue(0.5, 2); p != 1 {
		t.Errorf("n<3 should return 1, got %g", p)
	}
	// scipy.stats.pearsonr reference: r=0.5, n=20 → p≈0.02479.
	approx(t, "r=.5,n=20", PearsonPValue(0.5, 20), 0.02479, 5e-4)
}

func TestChiSquared(t *testing.T) {
	// Classic 2x2 example: chi2 = n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)).
	table := [][]float64{{10, 20}, {30, 40}}
	chi2, df := ChiSquared(table)
	if df != 1 {
		t.Fatalf("df = %d, want 1", df)
	}
	approx(t, "chi2 2x2", chi2, 0.7937, 1e-3)

	// Independent table → chi2 = 0.
	ind := [][]float64{{10, 20}, {20, 40}}
	chi2, _ = ChiSquared(ind)
	approx(t, "independent", chi2, 0, 1e-9)

	// Degenerate tables.
	if c, d := ChiSquared(nil); c != 0 || d != 0 {
		t.Error("nil table should be (0,0)")
	}
	if c, d := ChiSquared([][]float64{{5, 5}}); c != 0 || d != 0 {
		t.Error("single-row table should be (0,0)")
	}
	if c, d := ChiSquared([][]float64{{0, 0}, {0, 0}}); c != 0 || d != 0 {
		t.Error("all-zero table should be (0,0)")
	}
}

func TestChiSquaredZeroMargins(t *testing.T) {
	// A zero column should be ignored, reducing df.
	table := [][]float64{{10, 0, 20}, {30, 0, 40}}
	_, df := ChiSquared(table)
	if df != 1 {
		t.Errorf("df with zero column = %d, want 1", df)
	}
}

func TestChiSquaredPValue(t *testing.T) {
	// chi2=3.841, df=1 → p≈0.05 (the 95% critical value).
	approx(t, "critical .05", ChiSquaredPValue(3.841, 1), 0.05, 1e-3)
	// chi2=0 → p=1; df<=0 → p=1.
	if ChiSquaredPValue(0, 3) != 1 || ChiSquaredPValue(5, 0) != 1 {
		t.Error("degenerate p-values should be 1")
	}
	// Large chi2 → p→0.
	if p := ChiSquaredPValue(100, 1); p > 1e-20 {
		t.Errorf("huge chi2 p = %g", p)
	}
}

func TestRegIncGamma(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		approx(t, "P(1,x)", regIncGammaP(1, x), 1-math.Exp(-x), 1e-10)
		approx(t, "Q(1,x)", RegIncGammaQ(1, x), math.Exp(-x), 1e-10)
	}
	if regIncGammaP(1, 0) != 0 || RegIncGammaQ(1, 0) != 1 {
		t.Error("boundary at x=0 wrong")
	}
	if !math.IsNaN(regIncGammaP(-1, 1)) {
		t.Error("invalid a should be NaN")
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.33, 0.5, 0.9} {
		approx(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-10)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, "symmetry", RegIncBeta(2.5, 1.5, 0.3), 1-RegIncBeta(1.5, 2.5, 0.7), 1e-10)
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("beta boundaries wrong")
	}
}

// Property: Pearson is symmetric, bounded, and scale-invariant.
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		if math.Abs(r) > 1 {
			return false
		}
		if math.Abs(r-Pearson(y, x)) > 1e-9 {
			return false
		}
		scaled := make([]float64, n)
		for i := range x {
			scaled[i] = 3*x[i] + 7
		}
		return math.Abs(r-Pearson(scaled, y)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// regIncGammaP is the lower regularized incomplete gamma function P(a, x),
// the complement RegIncGammaQ's tests check it against.
func regIncGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

// Property: P(a,x) + Q(a,x) = 1 and both lie in [0,1].
func TestIncGammaComplementProperty(t *testing.T) {
	f := func(rawA, rawX float64) bool {
		a := math.Abs(math.Mod(rawA, 20)) + 0.1
		x := math.Abs(math.Mod(rawX, 50))
		p, q := regIncGammaP(a, x), RegIncGammaQ(a, x)
		return p >= -1e-12 && p <= 1+1e-12 && q >= -1e-12 && q <= 1+1e-12 &&
			math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the chi-squared statistic is non-negative and invariant to
// scaling all counts (statistic scales linearly, so chi2/total is invariant).
func TestChiSquaredNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 2+rng.Intn(3), 2+rng.Intn(3)
		table := make([][]float64, r)
		for i := range table {
			table[i] = make([]float64, c)
			for j := range table[i] {
				table[i][j] = float64(rng.Intn(30) + 1)
			}
		}
		chi2, df := ChiSquared(table)
		if chi2 < 0 || df != (r-1)*(c-1) {
			return false
		}
		doubled := make([][]float64, r)
		for i := range doubled {
			doubled[i] = make([]float64, c)
			for j := range doubled[i] {
				doubled[i][j] = 2 * table[i][j]
			}
		}
		chi2x2, _ := ChiSquared(doubled)
		return math.Abs(chi2x2-2*chi2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
