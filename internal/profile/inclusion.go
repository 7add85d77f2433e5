package profile

import (
	"fmt"

	"repro/internal/dataset"
)

// Inclusion asserts an inclusion dependency Child ⊆ Parent between two
// string attributes of the dataset: every (non-NULL) child value also
// occurs as a parent value — foreign-key-style referential consistency,
// from the inclusion-dependency profile class the paper's Section 1 cites
// [55]. The violation is the fraction of tuples whose child value is
// unreferenced; the repair maps dangling values to their closest parent
// value (rank alignment, like the categorical Domain repair).
type Inclusion struct {
	Child, Parent string
	// Fit records the sampling bound active at discovery. The containment
	// check itself is exact (it compares rollup-backed distinct sets), but a
	// sample-fitted profile evaluates its violating fraction on the matching
	// deterministic sample view. Ignored by Key, SameParams, and String.
	Fit *Bound
}

// FitBound implements Bounded.
func (p *Inclusion) FitBound() *Bound { return p.Fit }

// Type implements Profile.
func (p *Inclusion) Type() string { return "inclusion" }

// Attributes implements Profile.
func (p *Inclusion) Attributes() []string { return []string{p.Child, p.Parent} }

// Key implements Profile.
func (p *Inclusion) Key() string { return "inclusion:" + p.Child + "⊆" + p.Parent }

// Violation returns the fraction of non-NULL child tuples whose value does
// not occur in the parent attribute. A sample-fitted profile counts on the
// matching deterministic sample view of d (exact when d is small).
func (p *Inclusion) Violation(d *dataset.Dataset) float64 {
	d = p.Fit.evalView(d)
	child, parent := d.Column(p.Child), d.Column(p.Parent)
	if child == nil || parent == nil ||
		child.Kind == dataset.Numeric || parent.Kind == dataset.Numeric ||
		d.NumRows() == 0 {
		return 0
	}
	parentVals := make(map[string]bool)
	for _, v := range parent.Rollup().Distinct {
		parentVals[v] = true
	}
	bad := 0
	for k := 0; k < child.NumChunks(); k++ {
		v := child.Chunk(k)
		for i := range v.Null {
			if !v.Null[i] && !parentVals[v.Strs[i]] {
				bad++
			}
		}
	}
	return float64(bad) / float64(d.NumRows())
}

// SameParams implements Profile: the IND template has no learned
// parameters, so two instances over the same pair always agree.
func (p *Inclusion) SameParams(other Profile) bool {
	o, ok := other.(*Inclusion)
	return ok && o.Child == p.Child && o.Parent == p.Parent
}

func (p *Inclusion) String() string {
	return fmt.Sprintf("⟨IND, %s ⊆ %s⟩", p.Child, p.Parent)
}

// discoverInclusions enumerates the inclusion dependencies that hold on d
// between distinct small-domain string attribute pairs. Trivial INDs
// (child domain of size ≤ 1, or both directions holding because the
// domains are equal sets with the child's a subset) are kept only in the
// direction child-domain ⊆ parent-domain with strictly smaller-or-equal
// cardinality, for determinism.
func discoverInclusions(d *dataset.Dataset, opts Options) []Profile {
	// Containment is checked exactly on the rollup-backed distinct sets —
	// already O(#chunks + domain) — so sampling only affects how discovered
	// profiles later evaluate their violating fraction.
	_, bound := opts.sampleFit(d)
	cols := d.Columns()
	domains := make(map[string]map[string]bool)
	for _, c := range cols {
		if c.Kind == dataset.Numeric {
			continue
		}
		vals := d.DistinctStrings(c.Name)
		if len(vals) == 0 || len(vals) > maxCategoricalDomain {
			continue
		}
		set := make(map[string]bool, len(vals))
		for _, v := range vals {
			set[v] = true
		}
		domains[c.Name] = set
	}
	var out []Profile
	for _, child := range cols {
		cd, ok := domains[child.Name]
		if !ok {
			continue
		}
		for _, parent := range cols {
			if parent.Name == child.Name {
				continue
			}
			pd, ok := domains[parent.Name]
			if !ok || len(cd) > len(pd) {
				continue
			}
			contained := true
			for v := range cd {
				if !pd[v] {
					contained = false
					break
				}
			}
			if contained {
				out = append(out, &Inclusion{Child: child.Name, Parent: parent.Name, Fit: bound})
			}
		}
	}
	return out
}
