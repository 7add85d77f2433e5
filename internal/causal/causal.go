// Package causal estimates pairwise causal coefficients between attributes,
// standing in for the TETRAD toolkit that the paper uses to parameterize
// causal Indep profiles (Figure 1, row 9).
//
// The model is a linear non-Gaussian pairwise SEM: for standardized x and y,
// the causal coefficient magnitude is the standardized regression coefficient
// (equal to Pearson's r), and the direction is decided by the
// Hyvärinen–Smith cumulant criterion: with ρ = corr(x, y) and
// Δ = E[x³y] − E[xy³], ρ·Δ > 0 favours x→y and ρ·Δ < 0 favours y→x.
// This captures exactly what the profile needs — a coefficient per attribute
// pair whose magnitude a transformation can reduce — without a full
// constraint-based search.
package causal

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Coefficient returns the magnitude of the pairwise causal coefficient
// between x and y under the linear SEM: |corr(x, y)| after standardization.
// It returns 0 for degenerate inputs.
func Coefficient(x, y []float64) float64 {
	return math.Abs(stats.Pearson(x, y))
}

// Direction returns +1 when the cumulant criterion favours x→y, -1 when it
// favours y→x, and 0 when the evidence is negligible (near-Gaussian or
// near-independent data).
func Direction(x, y []float64) int {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	zx := stats.Standardize(x)
	zy := stats.Standardize(y)
	rho := stats.Pearson(zx, zy)
	var d float64
	for i := 0; i < n; i++ {
		d += zx[i]*zx[i]*zx[i]*zy[i] - zx[i]*zy[i]*zy[i]*zy[i]
	}
	d /= float64(n)
	// For a true x→y link, ρ·Δ has the sign of the cause's excess kurtosis
	// (ρΔ = b²(1−b²)(κ−3) in the linear SEM), so correct by the sign of the
	// observed joint excess kurtosis to handle sub- and super-Gaussian data.
	excess := (stats.Kurtosis(zx)+stats.Kurtosis(zy))/2 - 3
	if math.Abs(excess) < 1e-2 {
		return 0 // near-Gaussian: direction unidentifiable
	}
	score := rho * d
	if excess < 0 {
		score = -score
	}
	const tiny = 1e-3
	switch {
	case score > tiny:
		return 1
	case score < -tiny:
		return -1
	default:
		return 0
	}
}

// encode converts a column to a numeric vector: numeric columns pass through
// (NULLs as the column mean), string columns map to sorted level indices.
func encode(d *dataset.Dataset, attr string) []float64 {
	c := d.Column(attr)
	if c == nil {
		return nil
	}
	n := d.NumRows()
	out := make([]float64, n)
	if c.Kind == dataset.Numeric {
		mean := stats.Mean(d.NumericValues(attr))
		if math.IsNaN(mean) {
			mean = 0
		}
		for i := 0; i < n; i++ {
			if c.NullAt(i) {
				out[i] = mean
			} else {
				out[i] = c.NumAt(i)
			}
		}
		return out
	}
	levels := d.DistinctStrings(attr)
	idx := make(map[string]float64, len(levels))
	for i, l := range levels {
		idx[l] = float64(i)
	}
	for i := 0; i < n; i++ {
		if !c.NullAt(i) {
			out[i] = idx[c.StrAt(i)]
		}
	}
	return out
}

// PairCoefficient estimates the causal coefficient magnitude between two
// attributes of a dataset (numeric or categorical).
func PairCoefficient(d *dataset.Dataset, a, b string) float64 {
	return Coefficient(encode(d, a), encode(d, b))
}
