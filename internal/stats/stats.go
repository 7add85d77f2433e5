// Package stats provides the statistical primitives DataPrism's profiles are
// built on: moments, quantiles, Pearson correlation with significance tests,
// and the chi-squared test of independence for categorical attribute pairs.
//
// Everything is implemented on the standard library; p-values use the
// regularized incomplete gamma/beta functions computed by series and
// continued-fraction expansions (Numerical Recipes style).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or NaN for an empty slice.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest values in xs. It returns
// (NaN, NaN) for an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
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

// QuantileSorted returns the q-quantile of an ascending-sorted slice using
// linear interpolation between order statistics. q is clamped to [0,1].
// Returns NaN for an empty slice.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 if either input is constant or the lengths differ.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Guard against floating point drift outside [-1, 1].
	return math.Max(-1, math.Min(1, r))
}

// PearsonPValue returns the two-sided p-value for the null hypothesis that
// the true correlation is zero, using the t-distribution with n-2 degrees of
// freedom. Returns 1 for n < 3 or |r| ≥ 1-eps handled via limits.
func PearsonPValue(r float64, n int) float64 {
	if n < 3 {
		return 1
	}
	if r >= 1 || r <= -1 {
		return 0
	}
	df := float64(n - 2)
	t := r * math.Sqrt(df/(1-r*r))
	return 2 * studentTSF(math.Abs(t), df)
}

// studentTSF is the survival function P(T > t) of the Student t-distribution
// with df degrees of freedom, for t ≥ 0, via the regularized incomplete beta.
func studentTSF(t, df float64) float64 {
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// ChiSquared computes the chi-squared statistic of independence for a
// contingency table given as joint counts, plus the degrees of freedom.
// Zero-margin rows/columns are ignored. Returns (0, 0) for degenerate tables.
func ChiSquared(table [][]float64) (chi2 float64, df int) {
	rows := len(table)
	if rows == 0 {
		return 0, 0
	}
	cols := len(table[0])
	rowSum := make([]float64, rows)
	colSum := make([]float64, cols)
	total := 0.0
	for i := range table {
		for j := range table[i] {
			rowSum[i] += table[i][j]
			colSum[j] += table[i][j]
			total += table[i][j]
		}
	}
	if total == 0 {
		return 0, 0
	}
	activeRows, activeCols := 0, 0
	for _, s := range rowSum {
		if s > 0 {
			activeRows++
		}
	}
	for _, s := range colSum {
		if s > 0 {
			activeCols++
		}
	}
	if activeRows < 2 || activeCols < 2 {
		return 0, 0
	}
	for i := range table {
		if rowSum[i] == 0 {
			continue
		}
		for j := range table[i] {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / total
			d := table[i][j] - expected
			chi2 += d * d / expected
		}
	}
	return chi2, (activeRows - 1) * (activeCols - 1)
}

// ContingencyTable tabulates joint counts of two categorical slices.
// The returned level orders are sorted for determinism.
func ContingencyTable(a, b []string) (table [][]float64, aLevels, bLevels []string) {
	ai := levelIndex(a)
	bi := levelIndex(b)
	aLevels = sortedKeys(ai)
	bLevels = sortedKeys(bi)
	for i, l := range aLevels {
		ai[l] = i
	}
	for i, l := range bLevels {
		bi[l] = i
	}
	table = make([][]float64, len(aLevels))
	for i := range table {
		table[i] = make([]float64, len(bLevels))
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		table[ai[a[i]]][bi[b[i]]]++
	}
	return table, aLevels, bLevels
}

func levelIndex(xs []string) map[string]int {
	m := make(map[string]int)
	for _, x := range xs {
		if _, ok := m[x]; !ok {
			m[x] = len(m)
		}
	}
	return m
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ChiSquaredPValue returns P(X² ≥ chi2) for a chi-squared distribution with
// df degrees of freedom: the upper regularized incomplete gamma Q(df/2, x/2).
func ChiSquaredPValue(chi2 float64, df int) float64 {
	if df <= 0 || chi2 <= 0 {
		return 1
	}
	return RegIncGammaQ(float64(df)/2, chi2/2)
}

// NormalCDF is the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// Standardize returns (xs - mean) / std; a constant slice maps to zeros.
func Standardize(xs []float64) []float64 {
	m, s := Mean(xs), StdDev(xs)
	out := make([]float64, len(xs))
	if s == 0 || math.IsNaN(s) {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m) / s
	}
	return out
}

// Skewness returns the standardized third moment of xs, 0 for degenerate input.
func Skewness(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m, s := Mean(xs), StdDev(xs)
	if s == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		d := (x - m) / s
		sum += d * d * d
	}
	return sum / float64(len(xs))
}

// Kurtosis returns the standardized fourth moment (not excess), 0 for
// degenerate input.
func Kurtosis(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m, s := Mean(xs), StdDev(xs)
	if s == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		d := (x - m) / s
		sum += d * d * d * d
	}
	return sum / float64(len(xs))
}
