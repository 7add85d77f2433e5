package profile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// distQuantiles is the quantile grid Distribution profiles are learned on.
var distQuantiles = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// Distribution asserts that a numeric attribute's value distribution stays
// close to a reference: the profile stores the reference deciles and the
// violation is the mean absolute quantile deviation, normalized by the
// reference range, above the allowance Delta. This extends Figure 1 with a
// "generative" drift profile (the data-drift failure class of the paper's
// introduction), repaired by monotone quantile matching.
type Distribution struct {
	Attr string
	// Quantiles are the reference deciles (0%,10%,…,100%).
	Quantiles []float64
	// Delta is the allowed normalized deviation, learned as 0 at discovery.
	Delta float64
	// Fit, when non-nil, records that the deciles were read off the merged
	// per-chunk quantile sketch instead of a full sort (Method "sketch").
	// Epsilon is the sketch's deterministic rank-error half-width — unlike
	// the sampling bounds it holds always, so Confidence is 1. A sketch-fitted
	// profile also evaluates Deviation through the sketch, keeping both sides
	// of the comparison on the same estimator. Ignored by Key, SameParams,
	// and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *Distribution) FitBound() *Bound { return p.Fit }

// DiscoverDistribution learns the exact Distribution profile of a numeric
// attribute from a full sort of its values, or nil if the attribute has no
// numeric values.
func DiscoverDistribution(d *dataset.Dataset, attr string) *Distribution {
	sorted := sortedValues(d, attr)
	if len(sorted) == 0 {
		return nil
	}
	qs := make([]float64, len(distQuantiles))
	for i, q := range distQuantiles {
		qs[i] = stats.QuantileSorted(sorted, q)
	}
	return &Distribution{Attr: attr, Quantiles: qs}
}

// sortedValues returns an ascending copy of the non-NULL values of a numeric
// attribute: exact order statistics cost one O(n log n) sort per call.
func sortedValues(d *dataset.Dataset, attr string) []float64 {
	vals := d.NumericValues(attr)
	sort.Float64s(vals)
	return vals
}

// DiscoverDistributionSketch learns the Distribution profile of a numeric
// attribute from the column's merged per-chunk quantile sketch — O(#chunks ·
// sketch size) instead of an O(n log n) full sort — attaching the sketch's
// deterministic rank-error bound. Returns nil if the attribute has no
// numeric values.
func DiscoverDistributionSketch(d *dataset.Dataset, attr string) *Distribution {
	r := d.Rollup(attr)
	if r == nil || r.Moments.Count == 0 {
		return nil
	}
	qs := make([]float64, len(distQuantiles))
	for i, q := range distQuantiles {
		qs[i] = r.Quantile(q)
	}
	return &Distribution{Attr: attr, Quantiles: qs, Fit: &Bound{
		SampleRows: d.NumRows(),
		TotalRows:  d.NumRows(),
		Epsilon:    r.Sketch.RankError(),
		Confidence: 1,
		Method:     "sketch",
	}}
}

// Type implements Profile.
func (p *Distribution) Type() string { return "distribution" }

// Attributes implements Profile.
func (p *Distribution) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *Distribution) Key() string { return "distribution:" + p.Attr }

// Deviation returns the mean absolute decile deviation of d's attribute
// from the reference, normalized by the reference range (clamped to [0,1]).
// A sketch-fitted profile reads d's deciles off its quantile-sketch roll-up
// (no sort); an exact profile sorts the values.
func (p *Distribution) Deviation(d *dataset.Dataset) float64 {
	if len(p.Quantiles) == 0 {
		return 0
	}
	var quantile func(q float64) float64
	if p.Fit != nil {
		r := d.Rollup(p.Attr)
		if r == nil || r.Moments.Count == 0 {
			return 0
		}
		quantile = r.Quantile
	} else {
		sorted := sortedValues(d, p.Attr)
		if len(sorted) == 0 {
			return 0
		}
		quantile = func(q float64) float64 { return stats.QuantileSorted(sorted, q) }
	}
	ref := p.Quantiles
	span := ref[len(ref)-1] - ref[0]
	if span <= 0 {
		span = 1
	}
	sum := 0.0
	for i, q := range distQuantiles {
		sum += math.Abs(quantile(q) - ref[i])
	}
	dev := sum / float64(len(distQuantiles)) / span
	return math.Min(1, dev)
}

// Violation implements Profile.
func (p *Distribution) Violation(d *dataset.Dataset) float64 {
	if p.Delta >= 1 {
		return 0
	}
	return math.Max(0, (p.Deviation(d)-p.Delta)/(1-p.Delta))
}

// SameParams implements Profile.
func (p *Distribution) SameParams(other Profile) bool {
	o, ok := other.(*Distribution)
	if !ok || o.Attr != p.Attr || len(o.Quantiles) != len(p.Quantiles) ||
		math.Abs(o.Delta-p.Delta) > paramEps {
		return false
	}
	span := p.Quantiles[len(p.Quantiles)-1] - p.Quantiles[0]
	tol := paramEps
	if span > 0 {
		tol = 1e-6 * span
	}
	for i := range p.Quantiles {
		if math.Abs(o.Quantiles[i]-p.Quantiles[i]) > tol {
			return false
		}
	}
	return true
}

func (p *Distribution) String() string {
	if len(p.Quantiles) == 0 {
		return fmt.Sprintf("⟨Dist, %s, ∅⟩", p.Attr)
	}
	return fmt.Sprintf("⟨Dist, %s, median=%.3g, range=[%.3g, %.3g]⟩",
		p.Attr, p.Quantiles[len(p.Quantiles)/2], p.Quantiles[0], p.Quantiles[len(p.Quantiles)-1])
}

// MapThroughQuantiles maps a value v from the source decile grid onto the
// profile's reference grid by piecewise-linear CDF matching — the
// transformation function for Distribution profiles.
func (p *Distribution) MapThroughQuantiles(srcQuantiles []float64, v float64) float64 {
	ref := p.Quantiles
	n := len(srcQuantiles)
	if n == 0 || n != len(ref) {
		return v
	}
	if v <= srcQuantiles[0] {
		return ref[0]
	}
	if v >= srcQuantiles[n-1] {
		return ref[n-1]
	}
	for i := 1; i < n; i++ {
		if v <= srcQuantiles[i] {
			lo, hi := srcQuantiles[i-1], srcQuantiles[i]
			frac := 0.0
			if hi > lo {
				frac = (v - lo) / (hi - lo)
			}
			return ref[i-1] + frac*(ref[i]-ref[i-1])
		}
	}
	return ref[n-1]
}
