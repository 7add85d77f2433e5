package transform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/stats"
)

// ShuffleBreak repairs a chi-squared Indep violation by permuting the values
// of Attr uniformly across rows: the marginal distribution is preserved
// while the association with every other attribute is destroyed
// (Figure 1 row 7, "modify attribute values to remove dependence").
type ShuffleBreak struct {
	Prof *profile.IndepChi
	// Attr is the attribute whose values are permuted (one of the pair).
	Attr string
}

// Name implements Transformation.
func (t *ShuffleBreak) Name() string { return "shuffle-" + t.Attr }

// Modifies implements Transformation.
func (t *ShuffleBreak) Modifies() []string { return []string{t.Attr} }

// Apply implements Transformation.
func (t *ShuffleBreak) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	c := out.MutableColumn(t.Attr)
	if c == nil {
		return nil, fmt.Errorf("transform: no column %q", t.Attr)
	}
	perm := rng.Perm(out.NumRows())
	permuteColumn(c, perm)
	return out, nil
}

// permuteColumn applies a row permutation to a single column in place: a
// full gather from the pre-permutation content, then a chunk-at-a-time
// write-back. Every chunk changes, so every chunk goes mutable.
func permuteColumn(c *dataset.Column, perm []int) {
	null := make([]bool, len(perm))
	if c.Kind == dataset.Numeric {
		vals := make([]float64, len(perm))
		for i, p := range perm {
			vals[i] = c.NumAt(p)
			null[i] = c.NullAt(p)
		}
		for k := 0; k < c.NumChunks(); k++ {
			w := c.MutableChunk(k)
			copy(w.Nums, vals[w.Start:])
			copy(w.Null, null[w.Start:])
		}
		return
	}
	vals := make([]string, len(perm))
	for i, p := range perm {
		vals[i] = c.StrAt(p)
		null[i] = c.NullAt(p)
	}
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		copy(w.Strs, vals[w.Start:])
		copy(w.Null, null[w.Start:])
	}
}

// Coverage implements Transformation: a shuffle perturbs essentially every
// row carrying a non-NULL value of the attribute.
func (t *ShuffleBreak) Coverage(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	c := d.Column(t.Attr)
	if c == nil {
		return 0
	}
	return float64(d.NumRows()-d.NullCount(t.Attr)) / float64(d.NumRows())
}

// NoiseBreak repairs a Pearson Indep violation by adding zero-mean Gaussian
// noise to Attr, with the noise scale chosen analytically so the resulting
// correlation magnitude drops to the profile's α (Figure 1 row 8):
// corr(x, y+ε) = r·σ_y/√(σ_y²+σ_ε²), so σ_ε² = σ_y²((r/α)² − 1).
type NoiseBreak struct {
	Prof *profile.IndepPearson
	// Attr is the attribute receiving the noise (one of the pair).
	Attr string
}

// Name implements Transformation.
func (t *NoiseBreak) Name() string { return "noise-" + t.Attr }

// Modifies implements Transformation.
func (t *NoiseBreak) Modifies() []string { return []string{t.Attr} }

// Apply implements Transformation.
func (t *NoiseBreak) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	if c := out.Column(t.Attr); c == nil || c.Kind != dataset.Numeric {
		return nil, fmt.Errorf("transform: no numeric column %q", t.Attr)
	}
	r, _ := t.Prof.Statistic(d)
	alpha := math.Abs(t.Prof.Alpha)
	absR := math.Abs(r)
	if absR <= alpha {
		return out, nil
	}
	sy := stats.StdDev(d.NumericValues(t.Attr))
	if sy == 0 {
		return out, nil
	}
	// Target slightly below α so sampling noise does not leave a residual
	// violation; α≈0 needs effectively unbounded noise, so cap the ratio.
	target := 0.9 * alpha
	const minTarget = 1e-3
	if target < minTarget {
		target = minTarget
	}
	ratio := absR / target
	sigma := sy * math.Sqrt(ratio*ratio-1)
	c := out.MutableColumn(t.Attr)
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			if !w.Null[i] {
				w.Nums[i] += sigma * rng.NormFloat64()
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *NoiseBreak) Coverage(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	c := d.Column(t.Attr)
	if c == nil {
		return 0
	}
	if v := t.Prof.Violation(d); v == 0 {
		return 0
	}
	return float64(d.NumRows()-d.NullCount(t.Attr)) / float64(d.NumRows())
}

// CausalBreak repairs a causal Indep violation (Figure 1 row 9, "change
// data distribution to modify the causal relationship"): numeric effect
// attributes receive calibrated noise, categorical ones are permuted.
type CausalBreak struct {
	Prof *profile.IndepCausal
}

// Name implements Transformation.
func (t *CausalBreak) Name() string { return "causal-break" }

// Modifies implements Transformation.
func (t *CausalBreak) Modifies() []string { return []string{t.Prof.AttrB} }

// Apply implements Transformation.
func (t *CausalBreak) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	if out.Column(t.Prof.AttrB) == nil {
		return nil, fmt.Errorf("transform: no column %q", t.Prof.AttrB)
	}
	if out.Column(t.Prof.AttrB).Kind == dataset.Numeric {
		// Reuse the analytic Pearson noise calibration: the pairwise causal
		// coefficient magnitude equals |corr| under the linear SEM.
		nb := &NoiseBreak{
			Prof: &profile.IndepPearson{AttrA: t.Prof.AttrA, AttrB: t.Prof.AttrB, Alpha: t.Prof.Alpha},
			Attr: t.Prof.AttrB,
		}
		res, err := nb.Apply(d, rng)
		if err == nil {
			return res, nil
		}
		// Mixed pair (AttrA categorical): fall through to a permutation.
	}
	perm := rng.Perm(out.NumRows())
	permuteColumn(out.MutableColumn(t.Prof.AttrB), perm)
	return out, nil
}

// Coverage implements Transformation.
func (t *CausalBreak) Coverage(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 || d.Column(t.Prof.AttrB) == nil {
		return 0
	}
	return float64(d.NumRows()-d.NullCount(t.Prof.AttrB)) / float64(d.NumRows())
}

// forConditional builds transformations for a conditional profile by
// wrapping each transformation of the inner profile so it applies only to
// the tuples matching the condition.
func forConditional(p *profile.Conditional) []Transformation {
	inner := ForProfile(p.Inner)
	out := make([]Transformation, 0, len(inner))
	for _, tr := range inner {
		if _, resamples := tr.(*Resample); resamples {
			continue // row-count-changing transforms cannot be scoped to a subset
		}
		out = append(out, &ConditionalTransform{Prof: p, Inner: tr})
	}
	return out
}

// ConditionalTransform scopes an inner transformation to the subset of
// tuples matching a conditional profile's condition.
type ConditionalTransform struct {
	Prof  *profile.Conditional
	Inner Transformation
}

// Name implements Transformation.
func (t *ConditionalTransform) Name() string { return "conditional-" + t.Inner.Name() }

// Modifies implements Transformation.
func (t *ConditionalTransform) Modifies() []string { return t.Inner.Modifies() }

// Apply implements Transformation: the inner transform runs on the matching
// subset and the transformed attribute values are written back in place.
func (t *ConditionalTransform) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	match := t.Prof.Cond.MatchingRows(d)
	if len(match) == 0 {
		return d.Clone(), nil
	}
	sub := d.SelectRows(match)
	fixed, err := t.Inner.Apply(sub, rng)
	if err != nil {
		return nil, err
	}
	if fixed.NumRows() != len(match) {
		return nil, fmt.Errorf("transform: conditional inner %q changed row count", t.Inner.Name())
	}
	out := d.Clone()
	for _, attr := range t.Inner.Modifies() {
		src := fixed.Column(attr)
		dst := out.MutableColumn(attr)
		if src == nil || dst == nil {
			continue
		}
		// match is ascending, so the scattered write-back visits chunks in
		// order: hold one mutable chunk at a time and advance on boundary.
		ck := -1
		var w dataset.ChunkView
		for j, r := range match {
			if k := r / dst.ChunkSize(); k != ck {
				ck = k
				w = dst.MutableChunk(k)
			}
			off := r - w.Start
			w.Null[off] = src.NullAt(j)
			if src.Kind == dataset.Numeric {
				w.Nums[off] = src.NumAt(j)
			} else {
				w.Strs[off] = src.StrAt(j)
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation: inner coverage scaled by the
// condition's selectivity.
func (t *ConditionalTransform) Coverage(d *dataset.Dataset) float64 {
	match := t.Prof.Cond.MatchingRows(d)
	if len(match) == 0 || d.NumRows() == 0 {
		return 0
	}
	sub := d.SelectRows(match)
	return t.Inner.Coverage(sub) * float64(len(match)) / float64(d.NumRows())
}
