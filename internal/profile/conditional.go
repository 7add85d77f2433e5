package profile

import (
	"fmt"

	"repro/internal/dataset"
)

// Conditional wraps a profile so that it only constrains the subset of
// tuples satisfying a condition — the "conditional profiles" extension the
// paper sketches in Section 3 (analogous to conditional functional
// dependencies). The violation of a conditional profile is the violation of
// the inner profile evaluated on the condition's selection.
type Conditional struct {
	Cond  dataset.Predicate
	Inner Profile
}

// Type implements Profile.
func (p *Conditional) Type() string { return "conditional" }

// Attributes returns the union of the condition's and inner profile's
// attributes, deduplicated in first-seen order.
func (p *Conditional) Attributes() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range append(p.Cond.Attributes(), p.Inner.Attributes()...) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Key implements Profile.
func (p *Conditional) Key() string {
	return "conditional[" + p.Cond.Key() + "]:" + p.Inner.Key()
}

// Violation evaluates the inner profile's violation on the selected subset.
func (p *Conditional) Violation(d *dataset.Dataset) float64 {
	mask := p.Cond.Mask(d, nil)
	sub := d.Filter(func(r int) bool { return mask[r] })
	if sub.NumRows() == 0 {
		return 0
	}
	return p.Inner.Violation(sub)
}

// SameParams implements Profile.
func (p *Conditional) SameParams(other Profile) bool {
	o, ok := other.(*Conditional)
	return ok && o.Cond.Key() == p.Cond.Key() && p.Inner.SameParams(o.Inner)
}

func (p *Conditional) String() string {
	return fmt.Sprintf("⟨If %s: %s⟩", p.Cond, p.Inner)
}

// DiscoverConditional learns conditional variants of single-attribute
// profiles: for every small-domain categorical attribute value (the
// condition), it discovers Domain and Missing profiles of the *other*
// attributes on the conditioned subset. This is an extension beyond the
// paper's evaluated profile classes.
func DiscoverConditional(d *dataset.Dataset, _ Options) []Profile {
	var out []Profile
	for _, condCol := range d.Columns() {
		if condCol.Kind != dataset.Categorical {
			continue
		}
		distinct := d.DistinctStrings(condCol.Name)
		if len(distinct) == 0 || len(distinct) > maxCategoricalDomain {
			continue
		}
		var mask []bool
		for _, v := range distinct {
			cond := dataset.And(dataset.EqStr(condCol.Name, v))
			mask = cond.Mask(d, mask)
			sub := d.Filter(func(r int) bool { return mask[r] })
			if sub.NumRows() == 0 {
				continue
			}
			for _, c := range sub.Columns() {
				if c.Name == condCol.Name {
					continue
				}
				if p := discoverDomain(sub, c); p != nil {
					out = append(out, &Conditional{Cond: cond, Inner: p})
				}
				theta := float64(sub.NullCount(c.Name)) / float64(sub.NumRows())
				out = append(out, &Conditional{
					Cond:  cond,
					Inner: &Missing{Attr: c.Name, Theta: theta},
				})
			}
		}
	}
	return out
}
