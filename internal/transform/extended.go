package transform

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/stats"
)

// QuantileMap repairs a Distribution violation by piecewise-linear CDF
// matching: every value maps monotonically from the dataset's own decile
// grid onto the profile's reference deciles, aligning the full distribution
// (a strict generalization of LinearMap for non-linear drift).
type QuantileMap struct {
	Profile *profile.Distribution
}

// Name implements Transformation.
func (t *QuantileMap) Name() string { return "quantile-map" }

// Target implements Transformation.
func (t *QuantileMap) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *QuantileMap) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *QuantileMap) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	src := profile.DiscoverDistribution(d, t.Profile.Attr)
	if src == nil {
		return nil, fmt.Errorf("transform: no numeric values in %q", t.Profile.Attr)
	}
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			if !w.Null[i] {
				w.Nums[i] = t.Profile.MapThroughQuantiles(src.Quantiles, w.Nums[i])
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation: all non-NULL values move once the
// distribution has materially drifted (sampling noise below 1% of the
// reference range does not count as drift).
func (t *QuantileMap) Coverage(d *dataset.Dataset) float64 {
	if t.Profile.Deviation(d) <= t.Profile.Delta+0.01 {
		return 0
	}
	return numericShare(d, t.Profile.Attr)
}

// FDRepair repairs a functional-dependency violation by overwriting each
// tuple's dependent value with its determinant group's majority value —
// the standard minimal g3 repair.
type FDRepair struct {
	Profile *profile.FuncDep
}

// Name implements Transformation.
func (t *FDRepair) Name() string { return "fd-repair" }

// Target implements Transformation.
func (t *FDRepair) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *FDRepair) Modifies() []string { return []string{t.Profile.Dep} }

// Apply implements Transformation.
func (t *FDRepair) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	det := d.Column(t.Profile.Det)
	dep := d.Column(t.Profile.Dep)
	if det == nil || dep == nil || det.Kind == dataset.Numeric || dep.Kind == dataset.Numeric {
		return nil, fmt.Errorf("transform: FD %s→%s needs categorical columns", t.Profile.Det, t.Profile.Dep)
	}
	majority := t.Profile.MajorityValue(d)
	out := d.Clone()
	odet, odep := out.Column(t.Profile.Det), out.MutableColumn(t.Profile.Dep)
	for k := 0; k < odep.NumChunks(); k++ {
		dv, pv := odet.Chunk(k), odep.Chunk(k)
		var w dataset.ChunkView
		for i := range pv.Null {
			if dv.Null[i] || pv.Null[i] {
				continue
			}
			if m, ok := majority[dv.Strs[i]]; ok && m != pv.Strs[i] {
				if w.Null == nil {
					w = odep.MutableChunk(k) // copy/dirty only chunks that change
				}
				w.Strs[i] = m
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation: the violating fraction (g3).
func (t *FDRepair) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.G3(d)
}

// ConformTextMulti repairs a multi-format text Domain violation by
// minimally editing each non-matching value toward the learned format
// alternation (preferring the branch with the value's own run structure).
type ConformTextMulti struct {
	Profile *profile.DomainTextMulti
}

// Name implements Transformation.
func (t *ConformTextMulti) Name() string { return "conform-alternation" }

// Target implements Transformation.
func (t *ConformTextMulti) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *ConformTextMulti) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *ConformTextMulti) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	if c == nil || c.Kind == dataset.Numeric {
		return nil, fmt.Errorf("transform: no text column %q", t.Profile.Attr)
	}
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		var w dataset.ChunkView
		for i := range v.Strs {
			if v.Null[i] {
				continue
			}
			if !t.Profile.Alt.Matches(v.Strs[i]) {
				if w.Null == nil {
					w = c.MutableChunk(k) // copy/dirty only chunks that change
				}
				w.Strs[i] = t.Profile.Alt.Conform(v.Strs[i])
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *ConformTextMulti) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.Violation(d)
}

// Recadence repairs a Frequency (sampling-cadence) violation by rescaling
// the attribute around its minimum so the median inter-value gap matches
// the profile's reference cadence — turning an accidental daily feed back
// into the weekly cadence the consumer expects.
type Recadence struct {
	Profile *profile.Frequency
}

// Name implements Transformation.
func (t *Recadence) Name() string { return "recadence" }

// Target implements Transformation.
func (t *Recadence) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *Recadence) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *Recadence) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	cur := profile.DiscoverFrequency(d, t.Profile.Attr)
	if cur == nil {
		return nil, fmt.Errorf("transform: attribute %q has no measurable cadence", t.Profile.Attr)
	}
	scale := t.Profile.MedianGap / cur.MedianGap
	// The origin is the NaN-skipping minimum: a NaN cell must not become the
	// origin, or every value would rescale to NaN.
	lo := d.Rollup(t.Profile.Attr).Min()
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			if !w.Null[i] {
				w.Nums[i] = lo + (w.Nums[i]-lo)*scale
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation: the rescale moves every non-NULL
// value once the cadence has drifted beyond noise.
func (t *Recadence) Coverage(d *dataset.Dataset) float64 {
	if t.Profile.Violation(d) < 0.01 {
		return 0
	}
	return numericShare(d, t.Profile.Attr)
}

// RepairInclusion repairs an inclusion-dependency violation by mapping each
// dangling child value onto a referenced parent value, aligned by rank —
// the foreign-key analogue of the categorical Domain repair.
type RepairInclusion struct {
	Profile *profile.Inclusion
}

// Name implements Transformation.
func (t *RepairInclusion) Name() string { return "repair-inclusion" }

// Target implements Transformation.
func (t *RepairInclusion) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *RepairInclusion) Modifies() []string { return []string{t.Profile.Child} }

// Apply implements Transformation: dangling values are re-mapped through a
// synthesized categorical Domain whose value set is the parent attribute's
// observed values.
func (t *RepairInclusion) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	parent := d.Column(t.Profile.Parent)
	if parent == nil || parent.Kind == dataset.Numeric {
		return nil, fmt.Errorf("transform: no string parent column %q", t.Profile.Parent)
	}
	values := make(map[string]bool)
	for _, v := range d.DistinctStrings(t.Profile.Parent) {
		values[v] = true
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("transform: parent %q has no values to reference", t.Profile.Parent)
	}
	domain := &MapToDomain{Profile: &profile.DomainCategorical{Attr: t.Profile.Child, Values: values}}
	return domain.Apply(d, rng)
}

// Coverage implements Transformation.
func (t *RepairInclusion) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.Violation(d)
}

// Deduplicate repairs a Unique (key-ness) violation by dropping every tuple
// whose key value already occurred in an earlier tuple, keeping first
// occurrences — the standard duplicate-key repair.
type Deduplicate struct {
	Profile *profile.Unique
}

// Name implements Transformation.
func (t *Deduplicate) Name() string { return "deduplicate" }

// Target implements Transformation.
func (t *Deduplicate) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *Deduplicate) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *Deduplicate) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	c := d.Column(t.Profile.Attr)
	if c == nil {
		return nil, fmt.Errorf("transform: no column %q", t.Profile.Attr)
	}
	seen := make(map[string]bool, d.NumRows())
	return d.Filter(func(r int) bool {
		if c.NullAt(r) {
			return true // NULL keys are a Missing problem, not a key clash
		}
		var key string
		if c.Kind == dataset.Numeric {
			key = strconv.FormatFloat(c.NumAt(r), 'g', -1, 64)
		} else {
			key = c.StrAt(r)
		}
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}), nil
}

// Coverage implements Transformation: the fraction of dropped tuples.
func (t *Deduplicate) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.DuplicateFraction(d)
}

// MedianShift is an alternative Distribution repair that only translates
// the attribute so its median matches the reference median — a cheaper,
// shape-preserving fix for pure location drift.
type MedianShift struct {
	Profile *profile.Distribution
}

// Name implements Transformation.
func (t *MedianShift) Name() string { return "median-shift" }

// Target implements Transformation.
func (t *MedianShift) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *MedianShift) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *MedianShift) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	vals := d.NumericValues(t.Profile.Attr)
	if len(vals) == 0 || len(t.Profile.Quantiles) == 0 {
		return nil, fmt.Errorf("transform: no numeric values in %q", t.Profile.Attr)
	}
	refMedian := t.Profile.Quantiles[len(t.Profile.Quantiles)/2]
	sort.Float64s(vals) // the exact median, from our own copy
	shift := refMedian - stats.QuantileSorted(vals, 0.5)
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			if !w.Null[i] {
				w.Nums[i] += shift
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *MedianShift) Coverage(d *dataset.Dataset) float64 {
	if t.Profile.Deviation(d) <= t.Profile.Delta+0.01 {
		return 0
	}
	return numericShare(d, t.Profile.Attr)
}
