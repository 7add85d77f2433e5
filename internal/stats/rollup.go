// Mergeable moment summaries: the per-chunk statistics blocks of the chunked
// dataset roll up to column level by merging these, so column statistics
// after a sparse write cost O(dirty chunks), not O(rows).
package stats

import "math"

// Moments is a mergeable summary of a float64 population: count, sum,
// extrema, mean, and the centered second moment M2 = Σ(x−μ)². Two summaries
// over disjoint populations combine with Merge (the parallel variance
// update of Chan et al.), so a column's moments are a cheap fold over its
// per-chunk summaries.
//
// Min and Max skip NaN values (they are NaN only when every value is NaN or
// the population is empty) — a deliberate departure from first-element
// seeding, which is position-dependent and therefore not mergeable. Sum,
// Mean, and M2 propagate NaN like ordinary float64 arithmetic.
type Moments struct {
	Count    int
	Sum      float64
	Mean     float64
	M2       float64
	Min, Max float64
}

// MomentsOf summarizes xs with the same two-pass arithmetic as Mean and
// Variance, so a single-block summary is bit-identical to the flat
// computation: Mean == Mean(xs), sqrt(M2/Count) == StdDev(xs).
func MomentsOf(xs []float64) Moments {
	m := Moments{Count: len(xs), Min: math.NaN(), Max: math.NaN()}
	if len(xs) == 0 {
		m.Mean = math.NaN()
		return m
	}
	for _, x := range xs {
		m.Sum += x
		if !math.IsNaN(x) {
			// NaN-skipping extrema; see the type comment.
			if math.IsNaN(m.Min) || x < m.Min {
				m.Min = x
			}
			if math.IsNaN(m.Max) || x > m.Max {
				m.Max = x
			}
		}
	}
	m.Mean = m.Sum / float64(m.Count)
	for _, x := range xs {
		d := x - m.Mean
		m.M2 += d * d
	}
	return m
}

// Merge combines two summaries of disjoint populations. Merging with an
// empty summary is the identity, so a single-chunk column keeps its
// bit-exact two-pass moments; multi-way merges equal the flat computation up
// to floating-point association error.
func (m Moments) Merge(o Moments) Moments {
	if o.Count == 0 {
		return m
	}
	if m.Count == 0 {
		return o
	}
	out := Moments{
		Count: m.Count + o.Count,
		Sum:   m.Sum + o.Sum,
		Min:   mergeExtreme(m.Min, o.Min, func(a, b float64) bool { return b < a }),
		Max:   mergeExtreme(m.Max, o.Max, func(a, b float64) bool { return b > a }),
	}
	out.Mean = out.Sum / float64(out.Count)
	da := m.Mean - out.Mean
	db := o.Mean - out.Mean
	out.M2 = m.M2 + float64(m.Count)*da*da + o.M2 + float64(o.Count)*db*db
	return out
}

// mergeExtreme folds two NaN-skipping extrema: NaN means "no value seen".
func mergeExtreme(a, b float64, better func(a, b float64) bool) float64 {
	if math.IsNaN(a) {
		return b
	}
	if math.IsNaN(b) {
		return a
	}
	if better(a, b) {
		return b
	}
	return a
}

// HasNaN reports whether the summarized population contains a NaN value
// (detectable because NaN poisons the running sum).
func (m Moments) HasNaN() bool { return m.Count > 0 && math.IsNaN(m.Sum) }
