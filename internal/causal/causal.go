// Package causal estimates pairwise causal coefficients between attributes,
// standing in for the TETRAD toolkit that the paper uses to parameterize
// causal Indep profiles (Figure 1, row 9).
//
// The model is a linear pairwise SEM: for standardized x and y, the causal
// coefficient magnitude is the standardized regression coefficient (equal to
// Pearson's r). This captures exactly what the profile needs — a coefficient
// per attribute pair whose magnitude a transformation can reduce — without a
// full constraint-based search.
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
