// Package profile implements DataPrism's data profiles: the P and V of the
// PVT triplets in Figure 1 of the paper. A Profile is a parameterized
// property of a dataset (domain, outlier rate, missing rate, selectivity,
// independence); its Violation function scores how much another dataset
// violates it on a [0,1] scale, with 0 meaning full compliance.
//
// Profiles are discovered on a dataset (typically the passing dataset) via
// Discover; the violation of the failing dataset against those profiles
// identifies the discriminative PVTs that drive DataPrism's interventions.
package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/causal"
	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Profile is a parameterized data property with a violation semantics.
type Profile interface {
	// Type returns the registry name of the class that owns the profile,
	// e.g. "domain" or "indep-causal": discovery, transformation routing,
	// codecs and report grouping all look the class up under this name.
	Type() string
	// Attributes returns the attributes the profile is defined over.
	Attributes() []string
	// Key identifies the profile template instance (type + attributes, not
	// parameters); the same Key discovered on two datasets refers to the
	// same profile whose parameters may differ.
	Key() string
	// Violation returns how much d violates the profile in [0,1].
	Violation(d *dataset.Dataset) float64
	// SameParams reports whether other is the same profile with
	// (approximately) equal parameters.
	SameParams(other Profile) bool
	// String renders the profile in the paper's ⟨Type, params⟩ notation.
	String() string
}

// paramEps is the tolerance when comparing learned numeric parameters.
const paramEps = 1e-9

// ---------------------------------------------------------------------------
// Row 1: ⟨Domain, A, S⟩ for categorical attributes.

// DomainCategorical asserts that all values of Attr are drawn from Values.
type DomainCategorical struct {
	Attr   string
	Values map[string]bool
}

// Type implements Profile.
func (p *DomainCategorical) Type() string { return "domain" }

// Attributes implements Profile.
func (p *DomainCategorical) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *DomainCategorical) Key() string { return "domain:" + p.Attr }

// Violation returns the fraction of non-NULL tuples outside the domain.
func (p *DomainCategorical) Violation(d *dataset.Dataset) float64 {
	c := d.Column(p.Attr)
	if c == nil || c.Kind == dataset.Numeric || d.NumRows() == 0 {
		return 0
	}
	bad := 0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i := range v.Null {
			if !v.Null[i] && !p.Values[v.Strs[i]] {
				bad++
			}
		}
	}
	return float64(bad) / float64(d.NumRows())
}

// SameParams implements Profile.
func (p *DomainCategorical) SameParams(other Profile) bool {
	o, ok := other.(*DomainCategorical)
	if !ok || o.Attr != p.Attr || len(o.Values) != len(p.Values) {
		return false
	}
	for v := range p.Values {
		if !o.Values[v] {
			return false
		}
	}
	return true
}

// SortedValues returns the domain in deterministic order.
func (p *DomainCategorical) SortedValues() []string {
	out := make([]string, 0, len(p.Values))
	for v := range p.Values {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (p *DomainCategorical) String() string {
	return fmt.Sprintf("⟨Domain, %s, {%s}⟩", p.Attr, strings.Join(p.SortedValues(), ","))
}

// ---------------------------------------------------------------------------
// Row 2: ⟨Domain, A, [lb, ub]⟩ for numeric attributes.

// DomainNumeric asserts that all values of Attr lie within [Lo, Hi].
type DomainNumeric struct {
	Attr   string
	Lo, Hi float64
}

// Type implements Profile.
func (p *DomainNumeric) Type() string { return "domain" }

// Attributes implements Profile.
func (p *DomainNumeric) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *DomainNumeric) Key() string { return "domain:" + p.Attr }

// Violation returns the fraction of non-NULL tuples outside [Lo, Hi].
func (p *DomainNumeric) Violation(d *dataset.Dataset) float64 {
	c := d.Column(p.Attr)
	if c == nil || c.Kind != dataset.Numeric || d.NumRows() == 0 {
		return 0
	}
	bad := 0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i := range v.Null {
			if !v.Null[i] && (v.Nums[i] < p.Lo || v.Nums[i] > p.Hi) {
				bad++
			}
		}
	}
	return float64(bad) / float64(d.NumRows())
}

// SameParams implements Profile.
func (p *DomainNumeric) SameParams(other Profile) bool {
	o, ok := other.(*DomainNumeric)
	return ok && o.Attr == p.Attr &&
		math.Abs(o.Lo-p.Lo) < paramEps && math.Abs(o.Hi-p.Hi) < paramEps
}

func (p *DomainNumeric) String() string {
	return fmt.Sprintf("⟨Domain, %s, [%g, %g]⟩", p.Attr, p.Lo, p.Hi)
}

// ---------------------------------------------------------------------------
// Row 3: ⟨Domain, A, regex⟩ for text attributes.

// DomainText asserts that all values of Attr match a learned pattern.
type DomainText struct {
	Attr    string
	Pattern *pattern.Pattern
}

// Type implements Profile.
func (p *DomainText) Type() string { return "domain" }

// Attributes implements Profile.
func (p *DomainText) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *DomainText) Key() string { return "domain:" + p.Attr }

// Violation returns the fraction of non-NULL tuples not matching the pattern.
func (p *DomainText) Violation(d *dataset.Dataset) float64 {
	c := d.Column(p.Attr)
	if c == nil || c.Kind == dataset.Numeric || d.NumRows() == 0 {
		return 0
	}
	bad := 0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i := range v.Null {
			if !v.Null[i] && !p.Pattern.Matches(v.Strs[i]) {
				bad++
			}
		}
	}
	return float64(bad) / float64(d.NumRows())
}

// SameParams implements Profile.
func (p *DomainText) SameParams(other Profile) bool {
	o, ok := other.(*DomainText)
	return ok && o.Attr == p.Attr && p.Pattern.Equal(o.Pattern)
}

func (p *DomainText) String() string {
	return fmt.Sprintf("⟨Domain, %s, %s⟩", p.Attr, p.Pattern)
}

// ---------------------------------------------------------------------------
// Row 4: ⟨Outlier, A, O, θ⟩.

// Outlier asserts that the fraction of values of Attr flagged by the K-sigma
// outlier detector (relative to the evaluated dataset's own distribution)
// does not exceed Theta.
type Outlier struct {
	Attr  string
	K     float64 // standard-deviation multiplier of the detector O
	Theta float64 // allowed outlier fraction, learned at discovery
}

// Type implements Profile.
func (p *Outlier) Type() string { return "outlier" }

// Attributes implements Profile.
func (p *Outlier) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *Outlier) Key() string { return "outlier:" + p.Attr }

// OutlierFraction returns the fraction of rows holding a non-NULL value
// more than K standard deviations from the attribute mean of d. The mean
// and deviation come from two row-order passes over the chunks' non-NULL
// cells — the arithmetic of stats.Mean and stats.StdDev, without copying
// the values out — so which cells count as outliers does not depend on the
// chunk layout. On a single-chunk column they equal the roll-up's moments
// bit for bit.
func (p *Outlier) OutlierFraction(d *dataset.Dataset) float64 {
	c := d.Column(p.Attr)
	if c == nil || c.Kind != dataset.Numeric || d.NumRows() == 0 {
		return 0
	}
	count, sum := 0, 0.0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i, x := range v.Nums {
			if !v.Null[i] {
				count++
				sum += x
			}
		}
	}
	if count == 0 {
		return 0
	}
	m, m2 := sum/float64(count), 0.0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i, x := range v.Nums {
			if !v.Null[i] {
				dx := x - m
				m2 += dx * dx
			}
		}
	}
	s := math.Sqrt(m2 / float64(count))
	if s == 0 {
		return 0
	}
	n := 0
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i, x := range v.Nums {
			if !v.Null[i] && math.Abs(x-m) > p.K*s {
				n++
			}
		}
	}
	return float64(n) / float64(d.NumRows())
}

// Violation follows Figure 1 row 4: max(0, (frac − θ)/(1 − θ)).
func (p *Outlier) Violation(d *dataset.Dataset) float64 {
	frac := p.OutlierFraction(d)
	if p.Theta >= 1 {
		return 0
	}
	return math.Max(0, (frac-p.Theta)/(1-p.Theta))
}

// SameParams implements Profile.
func (p *Outlier) SameParams(other Profile) bool {
	o, ok := other.(*Outlier)
	return ok && o.Attr == p.Attr && math.Abs(o.K-p.K) < paramEps &&
		math.Abs(o.Theta-p.Theta) < paramEps
}

func (p *Outlier) String() string {
	return fmt.Sprintf("⟨Outlier, %s, O%.1f, %.3f⟩", p.Attr, p.K, p.Theta)
}

// ---------------------------------------------------------------------------
// Row 5: ⟨Missing, A, θ⟩.

// Missing asserts the fraction of NULLs in Attr does not exceed Theta.
type Missing struct {
	Attr  string
	Theta float64
}

// Type implements Profile.
func (p *Missing) Type() string { return "missing" }

// Attributes implements Profile.
func (p *Missing) Attributes() []string { return []string{p.Attr} }

// Key implements Profile.
func (p *Missing) Key() string { return "missing:" + p.Attr }

// MissingFraction returns the NULL fraction of Attr in d.
func (p *Missing) MissingFraction(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	return float64(d.NullCount(p.Attr)) / float64(d.NumRows())
}

// Violation follows Figure 1 row 5: max(0, (frac − θ)/(1 − θ)).
func (p *Missing) Violation(d *dataset.Dataset) float64 {
	frac := p.MissingFraction(d)
	if p.Theta >= 1 {
		return 0
	}
	return math.Max(0, (frac-p.Theta)/(1-p.Theta))
}

// SameParams implements Profile.
func (p *Missing) SameParams(other Profile) bool {
	o, ok := other.(*Missing)
	return ok && o.Attr == p.Attr && math.Abs(o.Theta-p.Theta) < paramEps
}

func (p *Missing) String() string {
	return fmt.Sprintf("⟨Missing, %s, %.3f⟩", p.Attr, p.Theta)
}

// ---------------------------------------------------------------------------
// Row 6: ⟨Selectivity, P, θ⟩.

// Selectivity asserts the fraction of tuples satisfying Pred equals Theta.
//
// Note on semantics: Figure 1's violation formula is one-sided (penalizing
// only selectivity above θ), but the paper's running example (Section 4.1)
// treats a *drop* in selectivity as discriminative and repairs it by
// over-sampling. We therefore score deviation two-sidedly, normalizing each
// side by its available headroom.
type Selectivity struct {
	Pred  dataset.Predicate
	Theta float64
	// Fit records the sampling bound when Theta was estimated on a sample;
	// nil means the fit was exact. Not part of the profile identity: Key,
	// SameParams, and String ignore it.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *Selectivity) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *Selectivity) Type() string { return "selectivity" }

// Attributes implements Profile.
func (p *Selectivity) Attributes() []string { return p.Pred.Attributes() }

// Key implements Profile.
func (p *Selectivity) Key() string { return "selectivity:" + p.Pred.Key() }

// Violation returns the normalized two-sided deviation of the selectivity
// of Pred in d from Theta. A sample-fitted profile estimates the selectivity
// of d on the matching deterministic sample view (exact when d is small).
func (p *Selectivity) Violation(d *dataset.Dataset) float64 {
	sel := p.Pred.Selectivity(p.Fit.evalView(d))
	switch {
	case sel > p.Theta && p.Theta < 1:
		return (sel - p.Theta) / (1 - p.Theta)
	case sel < p.Theta && p.Theta > 0:
		return (p.Theta - sel) / p.Theta
	default:
		return 0
	}
}

// SameParams implements Profile.
func (p *Selectivity) SameParams(other Profile) bool {
	o, ok := other.(*Selectivity)
	return ok && o.Pred.Key() == p.Pred.Key() && math.Abs(o.Theta-p.Theta) < paramEps
}

func (p *Selectivity) String() string {
	return fmt.Sprintf("⟨Selectivity, %s, %.3f⟩", p.Pred, p.Theta)
}

// ---------------------------------------------------------------------------
// Row 7: ⟨Indep, A, B, α⟩ with the chi-squared statistic (categorical pairs).

// IndepChi asserts that the chi-squared statistic between AttrA and AttrB
// does not exceed Alpha (at significance 0.05).
type IndepChi struct {
	AttrA, AttrB string
	Alpha        float64
	// Fit records the sampling bound when Alpha was fitted on a sample
	// (Epsilon bounds the contingency cell frequencies, not χ² itself);
	// nil means exact. Ignored by Key, SameParams, and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *IndepChi) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *IndepChi) Type() string { return "indep" }

// Attributes implements Profile.
func (p *IndepChi) Attributes() []string { return []string{p.AttrA, p.AttrB} }

// Key implements Profile.
func (p *IndepChi) Key() string { return "indep-chi:" + p.AttrA + ":" + p.AttrB }

// Statistic returns the chi-squared statistic of the pair in d, and whether
// it is significant at p ≤ 0.05. A sample-fitted profile computes it on the
// matching deterministic sample view of d (exact when d is small). The
// contingency table is counted straight from the chunks over the rows where
// both attributes are non-NULL, with each attribute's levels in sorted order.
func (p *IndepChi) Statistic(d *dataset.Dataset) (chi2 float64, significant bool) {
	d = p.Fit.evalView(d)
	ca, cb := d.Column(p.AttrA), d.Column(p.AttrB)
	if ca == nil || cb == nil || ca.Kind == dataset.Numeric || cb.Kind == dataset.Numeric {
		return 0, false
	}
	// Count pairs under first-seen level ids, then permute the counts into
	// sorted level order: integer counts are exact in either order.
	aIDs, bIDs := make(map[string]int), make(map[string]int)
	var counts [][]float64
	paired := 0
	for k := 0; k < ca.NumChunks(); k++ {
		va, vb := ca.Chunk(k), cb.Chunk(k)
		for i := range va.Null {
			if va.Null[i] || vb.Null[i] {
				continue
			}
			ia, ok := aIDs[va.Strs[i]]
			if !ok {
				ia = len(aIDs)
				aIDs[va.Strs[i]] = ia
				counts = append(counts, nil)
			}
			ib, ok := bIDs[vb.Strs[i]]
			if !ok {
				ib = len(bIDs)
				bIDs[vb.Strs[i]] = ib
			}
			for len(counts[ia]) <= ib {
				counts[ia] = append(counts[ia], 0)
			}
			counts[ia][ib]++
			paired++
		}
	}
	if paired == 0 {
		return 0, false
	}
	aRank, bRank := sortedRanks(aIDs), sortedRanks(bIDs)
	table := make([][]float64, len(aRank))
	for i := range table {
		table[i] = make([]float64, len(bRank))
	}
	for ia, row := range counts {
		for ib, n := range row {
			table[aRank[ia]][bRank[ib]] = n
		}
	}
	chi2, df := stats.ChiSquared(table)
	return chi2, stats.ChiSquaredPValue(chi2, df) <= 0.05
}

// sortedRanks maps each level's id in ids to the level's position in
// sorted order.
func sortedRanks(ids map[string]int) []int {
	levels := make([]string, 0, len(ids))
	for l := range ids {
		levels = append(levels, l)
	}
	sort.Strings(levels)
	rank := make([]int, len(levels))
	for r, l := range levels {
		rank[ids[l]] = r
	}
	return rank
}

// Violation follows Figure 1 row 7: 1 − exp(−max(0, χ² − α)), gated on
// statistical significance.
func (p *IndepChi) Violation(d *dataset.Dataset) float64 {
	chi2, significant := p.Statistic(d)
	if !significant {
		return 0
	}
	return 1 - math.Exp(-math.Max(0, chi2-p.Alpha))
}

// SameParams implements Profile.
func (p *IndepChi) SameParams(other Profile) bool {
	o, ok := other.(*IndepChi)
	return ok && o.AttrA == p.AttrA && o.AttrB == p.AttrB &&
		math.Abs(o.Alpha-p.Alpha) < 1e-6
}

func (p *IndepChi) String() string {
	return fmt.Sprintf("⟨Indep, %s, %s, χ²=%.3f⟩", p.AttrA, p.AttrB, p.Alpha)
}

// ---------------------------------------------------------------------------
// Row 8: ⟨Indep, A, B, α⟩ with Pearson correlation (numeric pairs).

// IndepPearson asserts |corr(AttrA, AttrB)| ≤ |Alpha| (at significance 0.05).
type IndepPearson struct {
	AttrA, AttrB string
	Alpha        float64
	// Fit records the sampling bound when Alpha was fitted on a sample
	// (CLT/Fisher bound on the correlation coefficient); nil means exact.
	// Ignored by Key, SameParams, and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *IndepPearson) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *IndepPearson) Type() string { return "indep" }

// Attributes implements Profile.
func (p *IndepPearson) Attributes() []string { return []string{p.AttrA, p.AttrB} }

// Key implements Profile.
func (p *IndepPearson) Key() string { return "indep-pearson:" + p.AttrA + ":" + p.AttrB }

// Statistic returns the correlation of the pair in d and its significance.
// A sample-fitted profile computes it on the matching deterministic sample
// view of d (exact when d is small). It runs stats.Pearson's two passes —
// sums, then centred products — over the rows where both attributes are
// non-NULL, reading the chunks in place in row order.
func (p *IndepPearson) Statistic(d *dataset.Dataset) (r float64, significant bool) {
	d = p.Fit.evalView(d)
	ca, cb := d.Column(p.AttrA), d.Column(p.AttrB)
	if ca == nil || cb == nil || ca.Kind != dataset.Numeric || cb.Kind != dataset.Numeric {
		return 0, false
	}
	n, sx, sy := 0, 0.0, 0.0
	for k := 0; k < ca.NumChunks(); k++ {
		va, vb := ca.Chunk(k), cb.Chunk(k)
		for i := range va.Null {
			if !va.Null[i] && !vb.Null[i] {
				n++
				sx += va.Nums[i]
				sy += vb.Nums[i]
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for k := 0; k < ca.NumChunks(); k++ {
		va, vb := ca.Chunk(k), cb.Chunk(k)
		for i := range va.Null {
			if !va.Null[i] && !vb.Null[i] {
				dx, dy := va.Nums[i]-mx, vb.Nums[i]-my
				sxy += dx * dy
				sxx += dx * dx
				syy += dy * dy
			}
		}
	}
	if sxx != 0 && syy != 0 {
		r = math.Max(-1, math.Min(1, sxy/math.Sqrt(sxx*syy)))
	}
	return r, stats.PearsonPValue(r, n) <= 0.05
}

// Violation follows Figure 1 row 8: max(0, (|r| − |α|)/(1 − |α|)).
func (p *IndepPearson) Violation(d *dataset.Dataset) float64 {
	r, significant := p.Statistic(d)
	if !significant {
		return 0
	}
	a := math.Abs(p.Alpha)
	if a >= 1 {
		return 0
	}
	return math.Max(0, (math.Abs(r)-a)/(1-a))
}

// SameParams implements Profile.
func (p *IndepPearson) SameParams(other Profile) bool {
	o, ok := other.(*IndepPearson)
	return ok && o.AttrA == p.AttrA && o.AttrB == p.AttrB &&
		math.Abs(o.Alpha-p.Alpha) < 1e-6
}

func (p *IndepPearson) String() string {
	return fmt.Sprintf("⟨Indep, %s, %s, r=%.3f⟩", p.AttrA, p.AttrB, p.Alpha)
}

// ---------------------------------------------------------------------------
// Row 9: ⟨Indep, A, B, α⟩ with a causal coefficient (mixed pairs).

// IndepCausal asserts the pairwise causal coefficient between AttrA and
// AttrB does not exceed Alpha.
type IndepCausal struct {
	AttrA, AttrB string
	Alpha        float64
	// Fit records the sampling bound when Alpha was fitted on a sample;
	// nil means exact. Ignored by Key, SameParams, and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *IndepCausal) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *IndepCausal) Type() string { return "indep-causal" }

// Attributes implements Profile.
func (p *IndepCausal) Attributes() []string { return []string{p.AttrA, p.AttrB} }

// Key implements Profile.
func (p *IndepCausal) Key() string { return "indep-causal:" + p.AttrA + ":" + p.AttrB }

// Violation follows Figure 1 row 9: max(0, (|coeff| − α)/(1 − α)). A
// sample-fitted profile evaluates the coefficient on the matching
// deterministic sample view of d (exact when d is small).
func (p *IndepCausal) Violation(d *dataset.Dataset) float64 {
	coeff := causal.PairCoefficient(p.Fit.evalView(d), p.AttrA, p.AttrB)
	if p.Alpha >= 1 {
		return 0
	}
	return math.Max(0, (coeff-p.Alpha)/(1-p.Alpha))
}

// SameParams implements Profile.
func (p *IndepCausal) SameParams(other Profile) bool {
	o, ok := other.(*IndepCausal)
	return ok && o.AttrA == p.AttrA && o.AttrB == p.AttrB &&
		math.Abs(o.Alpha-p.Alpha) < 1e-6
}

func (p *IndepCausal) String() string {
	return fmt.Sprintf("⟨Indep, %s, %s, coeff=%.3f⟩", p.AttrA, p.AttrB, p.Alpha)
}
