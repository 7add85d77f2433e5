// Package transform implements DataPrism's transformation functions — the T
// of the PVT triplets (rightmost column of Figure 1 in the paper). A
// Transformation alters a (cloned) dataset so that it no longer violates its
// target profile, providing both the intervention mechanism for causal
// verification and the suggested fix reported in explanations.
//
// ForProfile builds the candidate transformations for a profile discovered
// on the passing dataset by consulting the class registry (see registry.go
// and builtin.go); transformations compute everything they need from the
// dataset they are applied to, so they compose under the ◦ operator of
// Definition 9.
package transform

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/stats"
)

// Transformation alters a dataset so it satisfies a target profile.
type Transformation interface {
	// Name identifies the transformation strategy, e.g. "linear-map".
	Name() string
	// Target returns the profile this transformation repairs.
	Target() profile.Profile
	// Modifies returns the attributes the transformation alters.
	Modifies() []string
	// Apply returns a transformed copy of d; d itself is never mutated.
	Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error)
	// Coverage returns the fraction of tuples of d the transformation
	// would modify — the coverage term of the benefit score (Section 4.2).
	Coverage(d *dataset.Dataset) float64
}

// ---------------------------------------------------------------------------
// Domain (categorical): map values outside S onto S by rank correspondence.

// MapToDomain repairs a categorical Domain violation by mapping each value
// outside the domain to a domain value. Values are aligned by order
// statistics (numeric-aware), the closest stand-in for the paper's "map
// using domain knowledge": e.g. the failing sentiment labels {0, 4} map onto
// the passing domain {-1, 1} as 0→-1, 4→1.
type MapToDomain struct {
	Profile *profile.DomainCategorical
}

// Name implements Transformation.
func (t *MapToDomain) Name() string { return "map-to-domain" }

// Target implements Transformation.
func (t *MapToDomain) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *MapToDomain) Modifies() []string { return []string{t.Profile.Attr} }

// invalidValues returns the sorted distinct out-of-domain values in d.
func (t *MapToDomain) invalidValues(d *dataset.Dataset) []string {
	var out []string
	for _, v := range d.DistinctStrings(t.Profile.Attr) {
		if !t.Profile.Values[v] {
			out = append(out, v)
		}
	}
	sortValueAware(out)
	return out
}

// sortValueAware sorts numerically when every string parses as a number,
// lexicographically otherwise.
func sortValueAware(xs []string) {
	numeric := true
	nums := make([]float64, len(xs))
	for i, s := range xs {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			numeric = false
			break
		}
		nums[i] = v
	}
	if numeric {
		sort.Slice(xs, func(i, j int) bool {
			a, _ := strconv.ParseFloat(xs[i], 64)
			b, _ := strconv.ParseFloat(xs[j], 64)
			return a < b
		})
		return
	}
	sort.Strings(xs)
}

// Apply implements Transformation.
func (t *MapToDomain) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	c := d.Column(t.Profile.Attr)
	if c == nil || c.Kind == dataset.Numeric {
		return nil, fmt.Errorf("transform: no categorical column %q", t.Profile.Attr)
	}
	invalid := t.invalidValues(d)
	if len(invalid) == 0 {
		return d.Clone(), nil
	}
	domain := t.Profile.SortedValues()
	if len(domain) == 0 {
		return nil, fmt.Errorf("transform: empty target domain for %q", t.Profile.Attr)
	}
	sortValueAware(domain)
	mapping := make(map[string]string, len(invalid))
	for i, v := range invalid {
		// Proportional rank alignment between the two sorted value lists.
		j := i * len(domain) / len(invalid)
		if len(invalid) > 1 {
			j = i * (len(domain) - 1) / (len(invalid) - 1)
		}
		mapping[v] = domain[j]
	}
	out := d.Clone()
	oc := out.MutableColumn(t.Profile.Attr)
	for k := 0; k < oc.NumChunks(); k++ {
		v := oc.Chunk(k)
		var w dataset.ChunkView
		for i := range v.Strs {
			if v.Null[i] {
				continue
			}
			if repl, ok := mapping[v.Strs[i]]; ok {
				if w.Null == nil {
					w = oc.MutableChunk(k) // copy/dirty only chunks that change
				}
				w.Strs[i] = repl
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *MapToDomain) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.Violation(d)
}

// ---------------------------------------------------------------------------
// Domain (numeric): monotonic linear transformation of all values.

// LinearMap repairs a numeric Domain violation by linearly mapping the
// observed value range onto the profile's [Lo, Hi] — the transformation for
// unit mismatches, where all values (not only the violating ones) must move
// (Figure 1 row 2, transformation 1).
type LinearMap struct {
	Profile *profile.DomainNumeric
}

// Name implements Transformation.
func (t *LinearMap) Name() string { return "linear-map" }

// Target implements Transformation.
func (t *LinearMap) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *LinearMap) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *LinearMap) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	r := d.Rollup(t.Profile.Attr)
	if r == nil || r.Moments.Count == 0 {
		return nil, fmt.Errorf("transform: no numeric values in %q", t.Profile.Attr)
	}
	lo, hi := r.Min(), r.Max()
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	// A linear map rewrites every chunk, so privatize them in one bulk
	// allocation up front instead of copying chunk by chunk.
	c.PrivatizeChunks()
	scale := 0.0
	if hi > lo {
		scale = (t.Profile.Hi - t.Profile.Lo) / (hi - lo)
	}
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			if w.Null[i] {
				continue
			}
			if hi == lo {
				w.Nums[i] = t.Profile.Lo
			} else {
				v := t.Profile.Lo + (w.Nums[i]-lo)*scale
				// Absorb floating-point drift at the boundary values.
				if v < t.Profile.Lo {
					v = t.Profile.Lo
				} else if v > t.Profile.Hi {
					v = t.Profile.Hi
				}
				w.Nums[i] = v
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation: a linear map touches every non-NULL
// value as soon as the range is off.
func (t *LinearMap) Coverage(d *dataset.Dataset) float64 {
	if t.Profile.Violation(d) == 0 {
		return 0
	}
	return numericShare(d, t.Profile.Attr)
}

// numericShare returns the fraction of d's rows holding a non-NULL value in
// the numeric column attr (0 when the column is missing or not numeric) —
// the coverage of a transformation that rewrites every value.
func numericShare(d *dataset.Dataset, attr string) float64 {
	r := d.Rollup(attr)
	if r == nil || d.NumRows() == 0 {
		return 0
	}
	return float64(r.Moments.Count) / float64(d.NumRows())
}

// Winsorize repairs a numeric Domain violation by clamping only the
// violating values into [Lo, Hi] (Figure 1 row 2, transformation 2).
type Winsorize struct {
	Profile *profile.DomainNumeric
}

// Name implements Transformation.
func (t *Winsorize) Name() string { return "winsorize" }

// Target implements Transformation.
func (t *Winsorize) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *Winsorize) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *Winsorize) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	if c == nil || c.Kind != dataset.Numeric {
		return nil, fmt.Errorf("transform: no numeric column %q", t.Profile.Attr)
	}
	lo, hi := t.Profile.Lo, t.Profile.Hi
	// Decide per chunk from the cached chunk moments whether it holds any
	// value to clamp: only chunks whose extrema escape [Lo, Hi] — or that
	// contain NaN cells (clamped to Hi, invisible to the NaN-skipping
	// extrema) — are written. NaN bounds clamp everything, so they force
	// every chunk dirty. The write loop rechecks each cell, so the gate is
	// purely an optimization.
	allDirty := math.IsNaN(lo) || math.IsNaN(hi)
	dirty := make([]bool, c.NumChunks())
	nDirty := 0
	for k := range dirty {
		m := c.ChunkMoments(k)
		if allDirty || m.Min < lo || m.Max > hi || m.HasNaN() {
			dirty[k] = true
			nDirty++
		}
	}
	// Dense writes privatize all still-shared chunks in one bulk allocation;
	// sparse writes keep the copy-per-dirty-chunk path.
	if 2*nDirty >= c.NumChunks() {
		c.PrivatizeChunks()
	}
	for k := range dirty {
		if !dirty[k] {
			continue
		}
		w := c.MutableChunk(k)
		for i := range w.Nums {
			if w.Null[i] || (w.Nums[i] >= lo && w.Nums[i] <= hi) {
				continue
			}
			if w.Nums[i] < lo {
				w.Nums[i] = lo
			} else {
				w.Nums[i] = hi
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation: only the violating fraction moves.
func (t *Winsorize) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.Violation(d)
}

// ---------------------------------------------------------------------------
// Domain (text): minimally edit values to satisfy the learned pattern.

// ConformText repairs a text Domain violation by minimally editing each
// non-matching value to satisfy the learned pattern (Figure 1 row 3).
type ConformText struct {
	Profile *profile.DomainText
}

// Name implements Transformation.
func (t *ConformText) Name() string { return "conform-pattern" }

// Target implements Transformation.
func (t *ConformText) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *ConformText) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *ConformText) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	if c == nil || c.Kind == dataset.Numeric {
		return nil, fmt.Errorf("transform: no text column %q", t.Profile.Attr)
	}
	// Read-only pass marking chunks with a non-conforming value (stopping at
	// the first per chunk), so a dense edit can bulk-privatize instead of
	// copying chunk by chunk, and clean chunks are never copied.
	dirty := make([]bool, c.NumChunks())
	nDirty := 0
	for k := range dirty {
		v := c.Chunk(k)
		for i := range v.Strs {
			if !v.Null[i] && !t.Profile.Pattern.Matches(v.Strs[i]) {
				dirty[k] = true
				nDirty++
				break
			}
		}
	}
	if 2*nDirty >= c.NumChunks() {
		c.PrivatizeChunks()
	}
	for k := range dirty {
		if !dirty[k] {
			continue
		}
		w := c.MutableChunk(k)
		for i := range w.Strs {
			if !w.Null[i] && !t.Profile.Pattern.Matches(w.Strs[i]) {
				w.Strs[i] = t.Profile.Pattern.Conform(w.Strs[i])
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *ConformText) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.Violation(d)
}

// ---------------------------------------------------------------------------
// Outlier: replace or clamp detected outliers.

// ReplaceOutliers repairs an Outlier violation by replacing each outlier
// with the attribute's mean (Figure 1 row 4, transformation 1).
type ReplaceOutliers struct {
	Profile *profile.Outlier
}

// Name implements Transformation.
func (t *ReplaceOutliers) Name() string { return "replace-outliers-mean" }

// Target implements Transformation.
func (t *ReplaceOutliers) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *ReplaceOutliers) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation. The mean and spread are fitted by a
// row-order pass over the values, not read off the merged roll-up, so the
// written cells do not depend on the chunk layout (cow.go).
func (t *ReplaceOutliers) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	vals := d.NumericValues(t.Profile.Attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("transform: no numeric values in %q", t.Profile.Attr)
	}
	m, s := stats.Mean(vals), stats.StdDev(vals)
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		var w dataset.ChunkView
		for i := range v.Nums {
			if v.Null[i] {
				continue
			}
			if s > 0 && math.Abs(v.Nums[i]-m) > t.Profile.K*s {
				if w.Null == nil {
					w = c.MutableChunk(k) // copy/dirty only chunks with outliers
				}
				w.Nums[i] = m
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *ReplaceOutliers) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.OutlierFraction(d)
}

// ClampOutliers repairs an Outlier violation by mapping values above
// (below) the valid limit to the highest (lowest) valid value
// (Figure 1 row 4, transformation 2).
type ClampOutliers struct {
	Profile *profile.Outlier
}

// Name implements Transformation.
func (t *ClampOutliers) Name() string { return "clamp-outliers" }

// Target implements Transformation.
func (t *ClampOutliers) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *ClampOutliers) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation. Like ReplaceOutliers, it fits the limits
// by a row-order pass so they do not depend on the chunk layout.
func (t *ClampOutliers) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	vals := d.NumericValues(t.Profile.Attr)
	if len(vals) == 0 {
		return nil, fmt.Errorf("transform: no numeric values in %q", t.Profile.Attr)
	}
	m, s := stats.Mean(vals), stats.StdDev(vals)
	lo, hi := m-t.Profile.K*s, m+t.Profile.K*s
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		var w dataset.ChunkView
		for i := range v.Nums {
			if v.Null[i] || (v.Nums[i] >= lo && v.Nums[i] <= hi) {
				continue
			}
			if w.Null == nil {
				w = c.MutableChunk(k) // copy/dirty only chunks with outliers
			}
			if v.Nums[i] < lo {
				w.Nums[i] = lo
			} else {
				w.Nums[i] = hi
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *ClampOutliers) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.OutlierFraction(d)
}

// ---------------------------------------------------------------------------
// Missing: impute NULL values.

// Impute repairs a Missing violation by filling NULLs with the attribute's
// mean (numeric) or mode (categorical/text) — Figure 1 row 5.
type Impute struct {
	Profile *profile.Missing
}

// Name implements Transformation.
func (t *Impute) Name() string { return "impute" }

// Target implements Transformation.
func (t *Impute) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation.
func (t *Impute) Modifies() []string { return []string{t.Profile.Attr} }

// Apply implements Transformation.
func (t *Impute) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	if d.Column(t.Profile.Attr) == nil {
		return nil, fmt.Errorf("transform: no column %q", t.Profile.Attr)
	}
	// Fit the replacement statistic on the source before requesting the
	// mutable column (cow.go: finish reading statistics before mutating);
	// the clone's pre-mutation content is identical to d's. The numeric mean
	// is a row-order pass, independent of the chunk layout.
	out := d.Clone()
	c := out.MutableColumn(t.Profile.Attr)
	if c.Kind == dataset.Numeric {
		repl := stats.Mean(d.NumericValues(t.Profile.Attr))
		if math.IsNaN(repl) {
			repl = 0
		}
		for k := 0; k < c.NumChunks(); k++ {
			v := c.Chunk(k)
			var w dataset.ChunkView
			for i := range v.Null {
				if v.Null[i] {
					if w.Null == nil {
						w = c.MutableChunk(k) // copy/dirty only chunks with NULLs
					}
					w.Nums[i] = repl
					w.Null[i] = false
				}
			}
		}
		return out, nil
	}
	// The mode is the most frequent domain value; Distinct is ascending, so
	// ties keep the smallest value.
	r := d.Rollup(t.Profile.Attr)
	repl, best := "", 0
	for _, v := range r.Distinct {
		if n := r.Counts[v]; n > best {
			repl, best = v, n
		}
	}
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		var w dataset.ChunkView
		for i := range v.Null {
			if v.Null[i] {
				if w.Null == nil {
					w = c.MutableChunk(k) // copy/dirty only chunks with NULLs
				}
				w.Strs[i] = repl
				w.Null[i] = false
			}
		}
	}
	return out, nil
}

// Coverage implements Transformation.
func (t *Impute) Coverage(d *dataset.Dataset) float64 {
	return t.Profile.MissingFraction(d)
}
