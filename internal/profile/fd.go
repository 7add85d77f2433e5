package profile

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// FuncDep asserts an approximate functional dependency Det → Dep between
// two categorical attributes: at most Epsilon of the tuples disagree with
// their determinant group's majority dependent value (the g3 error measure
// of the FD-discovery literature the paper cites [14, 54]). It extends
// Figure 1 with the dependency-profile class the related work motivates.
type FuncDep struct {
	Det, Dep string
	// Epsilon is the allowed g3 violation fraction, learned at discovery.
	Epsilon float64
	// Fit records the sampling bound when Epsilon was fitted on a sample
	// (g3 is a [0,1] fraction, so the Hoeffding template applies, though the
	// group structure makes it approximate rather than a strict mean bound);
	// nil means exact. Ignored by Key, SameParams, and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *FuncDep) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *FuncDep) Type() string { return "fd" }

// Attributes implements Profile.
func (p *FuncDep) Attributes() []string { return []string{p.Det, p.Dep} }

// Key implements Profile.
func (p *FuncDep) Key() string { return "fd:" + p.Det + "->" + p.Dep }

// G3 returns the minimum fraction of tuples that must change their Dep
// value for the FD to hold exactly: 1 − Σ_groups max-class / n. NULL
// determinants or dependents are skipped. A sample-fitted profile computes
// g3 on the matching deterministic sample view of d (exact when d is small).
func (p *FuncDep) G3(d *dataset.Dataset) float64 {
	d = p.Fit.evalView(d)
	det, dep := d.Column(p.Det), d.Column(p.Dep)
	if det == nil || dep == nil || det.Kind == dataset.Numeric || dep.Kind == dataset.Numeric {
		return 0
	}
	groups := make(map[string]map[string]int)
	total := 0
	for k := 0; k < det.NumChunks(); k++ {
		dv, pv := det.Chunk(k), dep.Chunk(k)
		for i := range dv.Null {
			if dv.Null[i] || pv.Null[i] {
				continue
			}
			g := groups[dv.Strs[i]]
			if g == nil {
				g = make(map[string]int)
				groups[dv.Strs[i]] = g
			}
			g[pv.Strs[i]]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	kept := 0
	for _, g := range groups {
		best := 0
		for _, n := range g {
			if n > best {
				best = n
			}
		}
		kept += best
	}
	return 1 - float64(kept)/float64(total)
}

// Violation implements Profile: max(0, (g3 − ε)/(1 − ε)).
func (p *FuncDep) Violation(d *dataset.Dataset) float64 {
	if p.Epsilon >= 1 {
		return 0
	}
	return math.Max(0, (p.G3(d)-p.Epsilon)/(1-p.Epsilon))
}

// SameParams implements Profile.
func (p *FuncDep) SameParams(other Profile) bool {
	o, ok := other.(*FuncDep)
	return ok && o.Det == p.Det && o.Dep == p.Dep && math.Abs(o.Epsilon-p.Epsilon) < 1e-6
}

func (p *FuncDep) String() string {
	return fmt.Sprintf("⟨FD, %s→%s, ε=%.3f⟩", p.Det, p.Dep, p.Epsilon)
}

// MajorityValue returns, per determinant value, the majority dependent
// value in d — the repair targets of the FD transformation.
func (p *FuncDep) MajorityValue(d *dataset.Dataset) map[string]string {
	det, dep := d.Column(p.Det), d.Column(p.Dep)
	out := make(map[string]string)
	if det == nil || dep == nil || det.Kind == dataset.Numeric || dep.Kind == dataset.Numeric {
		return out
	}
	counts := make(map[string]map[string]int)
	for k := 0; k < det.NumChunks(); k++ {
		dv, pv := det.Chunk(k), dep.Chunk(k)
		for i := range dv.Null {
			if dv.Null[i] || pv.Null[i] {
				continue
			}
			g := counts[dv.Strs[i]]
			if g == nil {
				g = make(map[string]int)
				counts[dv.Strs[i]] = g
			}
			g[pv.Strs[i]]++
		}
	}
	for k, g := range counts {
		best, bestN := "", -1
		for v, n := range g {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		out[k] = best
	}
	return out
}

// discoverFDs enumerates approximate FDs between small-domain categorical
// attribute pairs, recording the observed g3 as each profile's ε. Only FDs
// that hold reasonably well (g3 ≤ maxG3) are kept — a near-random pair is
// not a meaningful dependency profile.
func discoverFDs(d *dataset.Dataset, opts Options) []Profile {
	const maxG3 = 0.2
	// Domain-size gating stays on the full dataset (rollup-backed, cheap);
	// the g3 fits run on the sample view when sampling is active.
	sd, bound := opts.sampleFit(d)
	var out []Profile
	cols := d.Columns()
	for i := range cols {
		if cols[i].Kind != dataset.Categorical {
			continue
		}
		if n := len(d.DistinctStrings(cols[i].Name)); n == 0 || n > maxCategoricalDomain {
			continue
		}
		for j := range cols {
			if i == j || cols[j].Kind != dataset.Categorical {
				continue
			}
			if n := len(d.DistinctStrings(cols[j].Name)); n == 0 || n > maxCategoricalDomain {
				continue
			}
			p := &FuncDep{Det: cols[i].Name, Dep: cols[j].Name, Fit: bound}
			g3 := p.G3(sd)
			if g3 > maxG3 {
				continue
			}
			p.Epsilon = g3
			out = append(out, p)
		}
	}
	return out
}
