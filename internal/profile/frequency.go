package profile

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
)

// Frequency asserts the sampling cadence of a monotone numeric attribute
// (timestamps, sequence numbers): the median gap between consecutive sorted
// values stays near MedianGap. It models the paper's introductory example
// of a system expecting a weekly data feed that suddenly turns daily — a
// cadence change no value-range profile can see. The repair rescales the
// attribute around its origin so the cadence matches the reference.
type Frequency struct {
	Attr string
	// MedianGap is the reference cadence, learned at discovery.
	MedianGap float64
}

// DiscoverFrequency learns the Frequency profile of a numeric attribute, or
// nil when the attribute has fewer than 3 values or a degenerate cadence.
func DiscoverFrequency(d *dataset.Dataset, attr string) *Frequency {
	gap := medianGap(d, attr)
	if gap <= 0 || math.IsNaN(gap) {
		return nil
	}
	return &Frequency{Attr: attr, MedianGap: gap}
}

// medianGap returns the median difference between consecutive sorted
// non-NULL values, or NaN when fewer than 2 gaps exist.
func medianGap(d *dataset.Dataset, attr string) float64 {
	sorted := sortedValues(d, attr)
	if len(sorted) < 3 {
		return math.NaN()
	}
	// The sorted copy is ours: overwrite it with the gaps in place.
	gaps := sorted[:len(sorted)-1]
	for i := range gaps {
		gaps[i] = sorted[i+1] - sorted[i]
	}
	sort.Float64s(gaps)
	return gaps[len(gaps)/2]
}

// Type implements Profile.
func (p *Frequency) Type() string { return "frequency" }

// Attributes implements Profile.
func (p *Frequency) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *Frequency) Key() string { return "frequency:" + p.Attr }

// Violation returns the normalized cadence deviation: |log(g/G)| folded
// into [0,1], so a 2× cadence change scores ≈ 0.5 and larger ratios
// saturate toward 1. A dataset with no measurable cadence scores 0.
func (p *Frequency) Violation(d *dataset.Dataset) float64 {
	g := medianGap(d, p.Attr)
	if math.IsNaN(g) || g <= 0 || p.MedianGap <= 0 {
		return 0
	}
	ratio := g / p.MedianGap
	dev := math.Abs(math.Log2(ratio))
	return math.Min(1, dev/2)
}

// SameParams implements Profile.
func (p *Frequency) SameParams(other Profile) bool {
	o, ok := other.(*Frequency)
	if !ok || o.Attr != p.Attr {
		return false
	}
	if p.MedianGap == 0 {
		return o.MedianGap == 0
	}
	return math.Abs(o.MedianGap-p.MedianGap)/p.MedianGap < 1e-6
}

func (p *Frequency) String() string {
	return fmt.Sprintf("⟨Frequency, %s, gap=%.4g⟩", p.Attr, p.MedianGap)
}
