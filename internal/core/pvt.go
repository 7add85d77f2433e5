// Package core implements DataPrism's intervention algorithms — the paper's
// primary contribution: greedy root-cause exploration (DataPrismGRD,
// Algorithm 1), group-testing exploration over the PVT-dependency graph
// (DataPrismGT, Algorithms 2–3), the Make-Minimal post-pass, and the
// decision-tree extension for interacting PVTs (Appendix B, Algorithm 5) —
// and the BugDoc, Anchor and GrpTest baselines of its evaluation. All of
// them are Explainer searches.
//
// Given a black-box system, a passing and a failing dataset, and a
// malfunction threshold τ, the algorithms return a minimal explanation: a
// set of PVT triplets whose composed transformations bring the failing
// dataset's malfunction score below τ (Definitions 10–11).
package core

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/transform"
)

// PVT is a Profile-Violation-Transformation triplet: the profile carries its
// violation function, and Transforms holds the candidate intervention
// mechanisms (possibly several, per Figure 1).
type PVT struct {
	Profile    profile.Profile
	Transforms []transform.Transformation
}

// Attributes returns the attributes the PVT's profile is defined over.
func (p *PVT) Attributes() []string { return p.Profile.Attributes() }

// String renders the PVT by its profile, matching the paper's shorthand.
func (p *PVT) String() string { return p.Profile.String() }

// BuildPVTs pairs each profile with its transformations, dropping profiles
// that have no registered intervention mechanism.
func BuildPVTs(profiles []profile.Profile) []*PVT {
	var out []*PVT
	for _, p := range profiles {
		ts := transform.ForProfile(p)
		if len(ts) == 0 {
			continue
		}
		out = append(out, &PVT{Profile: p, Transforms: ts})
	}
	return out
}

// DiscoverPVTs returns the discriminative PVTs between a passing and a
// failing dataset (Algorithm 1, lines 1–4): profiles discovered on the
// passing dataset whose violation on the failing dataset exceeds
// DiscriminativeEps, paired with their transformations.
func DiscoverPVTs(pass, fail *dataset.Dataset, opts profile.Options) []*PVT {
	return BuildPVTs(profile.Discriminative(pass, fail, opts, DiscriminativeEps))
}

// Benefit is the likelihood proxy of Section 4.2: the product of the PVT's
// violation score on d and the coverage of its transformation (the largest
// coverage among its candidate transformations).
func Benefit(p *PVT, d *dataset.Dataset) float64 {
	v := p.Profile.Violation(d)
	if v == 0 {
		return 0
	}
	return v * maxCoverage(p.Transforms, d)
}

// benefitCached is Benefit of PVT i, p, with the coverage term served from
// a per-search cache (see coverageCache); a nil cache falls back to direct
// computation.
func benefitCached(i int, p *PVT, d *dataset.Dataset, cov *coverageCache) float64 {
	if cov == nil {
		return Benefit(p, d)
	}
	v := p.Profile.Violation(d)
	if v == 0 {
		return 0
	}
	return v * cov.maxCoverage(i, p, d)
}

// buildGraph constructs the PVT-attribute bipartite graph for a PVT slice.
func buildGraph(pvts []*PVT) *graph.PVTAttr {
	return graph.NewPVTAttr(len(pvts), func(i int) []string { return pvts[i].Attributes() })
}

// orderTransforms returns the PVT's transformations sorted so those
// modifying higher-degree attributes (in the current PVT-attribute graph)
// come first — the graph-guided choice of which side of an Indep profile to
// intervene on (Observation O1). A PVT with fewer than two transformations
// gets its own slice back.
func orderTransforms(p *PVT, g *graph.PVTAttr) []transform.Transformation {
	if len(p.Transforms) < 2 {
		return p.Transforms
	}
	type scored struct {
		t      transform.Transformation
		degree int
		pos    int
	}
	list := make([]scored, len(p.Transforms))
	for i, t := range p.Transforms {
		deg := 0
		for _, a := range t.Modifies() {
			if d := g.AttrDegree(a); d > deg {
				deg = d
			}
		}
		list[i] = scored{t: t, degree: deg, pos: i}
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].degree > list[j].degree })
	out := make([]transform.Transformation, len(list))
	for i, s := range list {
		out[i] = s.t
	}
	return out
}

// inPlaceTransformation is an optional fast path: transformations that can
// mutate a dataset the caller owns, letting group interventions over very
// large PVT sets apply with a single clone instead of one clone per PVT.
type inPlaceTransformation interface {
	transform.Transformation
	ApplyInPlace(d *dataset.Dataset) error
}

// rowSelector is the other optional fast path: transformations whose output
// is a selection of their input's rows (Resample, Deduplicate). Rows
// returns the rows of d the output consists of when the rows sel of d (nil:
// every row) are the input, so consecutive selections compose as row lists
// and the dataset is gathered once.
type rowSelector interface {
	transform.Transformation
	Rows(d *dataset.Dataset, sel []int, rng *rand.Rand) (rows []int, same bool, err error)
}

// composition is the ◦ composition of Definition 9 over a dataset it owns.
// Consecutive row selections compose into a pending row list of cur, which
// is gathered into columns once: before the next transformation of another
// kind, and at the end. So a group of k Selectivity repairs copies the
// dataset once, not k times, and every composed dataset is cell for cell
// what applying the transformations one after another gives.
type composition struct {
	cur  *dataset.Dataset
	rows []int // rows of cur selected so far; nil: all of them, in order
}

// compose starts a composition over a clone of d; d is never mutated.
func compose(d *dataset.Dataset) *composition {
	return &composition{cur: d.Clone()}
}

// apply applies the first of ts that succeeds on the composed dataset,
// trying them in order. If every one fails, the PVT is skipped.
func (c *composition) apply(ts []transform.Transformation, rng *rand.Rand) {
	for _, t := range ts {
		switch t := t.(type) {
		case rowSelector:
			if rows, same, err := t.Rows(c.cur, c.rows, rng); err == nil {
				if !same {
					c.rows = rows
				}
				return
			}
		case inPlaceTransformation:
			if t.ApplyInPlace(c.dataset()) == nil {
				return
			}
		default:
			if out, err := t.Apply(c.dataset(), rng); err == nil {
				c.cur = out
				return
			}
		}
	}
}

// dataset gathers the pending rows and returns the composed dataset.
func (c *composition) dataset() *dataset.Dataset {
	if c.rows != nil {
		c.cur = c.cur.SelectRows(c.rows)
		c.rows = nil
	}
	return c.cur
}

// ComposeAll applies one transformation per PVT in slice order (the ◦
// composition of Definition 9), skipping PVTs whose transformations all
// fail on the current dataset. A PVT's transformations are tried in order
// unless chosen (which may be nil) names the one to use. d itself is never
// mutated. It is the one composition path: every search applies
// interventions through it.
func ComposeAll(d *dataset.Dataset, pvts []*PVT, chosen map[*PVT]transform.Transformation, rng *rand.Rand) *dataset.Dataset {
	c := compose(d)
	for _, p := range pvts {
		ts := p.Transforms
		if chosen != nil {
			if t, ok := chosen[p]; ok && t != nil {
				ts = []transform.Transformation{t}
			}
		}
		c.apply(ts, rng)
	}
	return c.dataset()
}

// pvtsAt returns the PVTs of pvts at the given indices, in the order of ids.
func pvtsAt(pvts []*PVT, ids []int) []*PVT {
	out := make([]*PVT, len(ids))
	for i, id := range ids {
		out[i] = pvts[id]
	}
	return out
}

// pvtSetString renders an explanation set for reports.
func pvtSetString(pvts []*PVT) string {
	parts := make([]string, len(pvts))
	for i, p := range pvts {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
