// Package synth builds the synthetic pipelines of the paper's Section 5.2
// and Appendix D: systems whose malfunction is a deterministic function of
// which ground-truth profile violations remain in the dataset, plus
// generators that control the number of attributes, the number of
// discriminative PVTs, and the structure (conjunctive / disjunctive) of the
// root cause.
//
// A synthetic scenario encodes each candidate PVT as one slot of a "flag"
// column: flag[i] = 1 means PVT i's profile is currently violated, and the
// PVT's transformation clears the flag. This gives exact control over
// benefit scores, attribute-sharing structure, and the system's response,
// while exercising the real intervention algorithms end to end.
package synth

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/transform"
)

// FlagColumn is the reserved attribute holding the violation flags.
const FlagColumn = "__synth_flags__"

// Profile is a synthetic profile: violated iff its flag slot is 1.
type Profile struct {
	// Index is the flag slot the profile reads.
	Index int
	// Attrs are the attributes the profile claims to be defined over,
	// controlling the PVT-attribute graph structure.
	Attrs []string
	// Cov is the coverage its transformation reports, controlling the
	// benefit score (violation is always 0 or 1).
	Cov float64
}

// Type implements profile.Profile.
func (p *Profile) Type() string { return "synth" }

// Attributes implements profile.Profile.
func (p *Profile) Attributes() []string { return p.Attrs }

// Key implements profile.Profile.
func (p *Profile) Key() string { return fmt.Sprintf("synth:%d", p.Index) }

// Violation implements profile.Profile: the flag value in [0,1].
func (p *Profile) Violation(d *dataset.Dataset) float64 {
	c := d.Column(FlagColumn)
	if c == nil || p.Index >= c.Len() {
		return 0
	}
	return c.NumAt(p.Index)
}

// SameParams implements profile.Profile.
func (p *Profile) SameParams(other profile.Profile) bool {
	o, ok := other.(*Profile)
	return ok && o.Index == p.Index
}

func (p *Profile) String() string { return "⟨Synth, X" + strconv.Itoa(p.Index+1) + "⟩" }

// Transform clears the profile's flag — the synthetic intervention.
type Transform struct {
	P *Profile
}

// Name implements transform.Transformation.
func (t *Transform) Name() string { return fmt.Sprintf("clear-flag-%d", t.P.Index) }

// Modifies implements transform.Transformation.
func (t *Transform) Modifies() []string { return t.P.Attrs }

// Apply implements transform.Transformation.
func (t *Transform) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	c := d.Column(FlagColumn)
	if c == nil || t.P.Index >= c.Len() {
		return nil, fmt.Errorf("synth: dataset has no flag slot %d", t.P.Index)
	}
	out := d.Clone()
	out.SetNum(FlagColumn, t.P.Index, 0)
	return out, nil
}

// ApplyInPlace implements core's in-place fast path: clearing a flag slot
// without cloning, so group interventions over hundreds of thousands of
// PVTs stay linear instead of quadratic.
func (t *Transform) ApplyInPlace(d *dataset.Dataset) error {
	if c := d.Column(FlagColumn); c == nil || t.P.Index >= c.Len() {
		return fmt.Errorf("synth: dataset has no flag slot %d", t.P.Index)
	}
	d.SetNum(FlagColumn, t.P.Index, 0)
	return nil
}

// Coverage implements transform.Transformation: the configured coverage
// while the profile is violated, zero otherwise.
func (t *Transform) Coverage(d *dataset.Dataset) float64 {
	if t.P.Violation(d) > 0 {
		return t.P.Cov
	}
	return 0
}

// Scenario is a fully-specified synthetic debugging problem.
type Scenario struct {
	// PVTs are the discriminative candidates handed to the algorithms.
	PVTs []*core.PVT
	// Fail is the failing dataset (all candidate flags raised).
	Fail *dataset.Dataset
	// System scores datasets by the remaining ground-truth violations.
	System pipeline.System
	// GroundTruth is the DNF root cause: the malfunction clears when every
	// PVT of at least one disjunct is repaired.
	GroundTruth [][]int
}

// FailingDataset builds a flag dataset with all k flags raised.
func FailingDataset(k int) *dataset.Dataset {
	flags := make([]float64, k)
	for i := range flags {
		flags[i] = 1
	}
	d := dataset.New()
	d.MustAddNumeric(FlagColumn, flags)
	return d
}

// DNFSystem scores a dataset as the minimum over disjuncts of the mean
// remaining violation of the disjunct's PVTs. The score is 0 exactly when
// some disjunct is fully repaired; repairing any ground-truth PVT strictly
// reduces its disjunct's mean, satisfying assumption A2, and for singleton
// disjuncts assumption A3 as well.
type DNFSystem struct {
	Label     string
	Disjuncts [][]int
	Profiles  []*Profile
}

// Name implements pipeline.System.
func (s *DNFSystem) Name() string { return s.Label }

// MalfunctionScore implements pipeline.System.
func (s *DNFSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	best := 1.0
	for _, conj := range s.Disjuncts {
		if len(conj) == 0 {
			continue
		}
		sum := 0.0
		for _, idx := range conj {
			sum += s.Profiles[idx].Violation(d)
		}
		if m := sum / float64(len(conj)); m < best {
			best = m
		}
	}
	return best
}

// Options configures scenario generation.
type Options struct {
	// NumPVTs is the number of discriminative candidates.
	NumPVTs int
	// NumAttrs is the attribute pool size; PVT i claims attribute
	// "a<i mod NumAttrs>", so PVTs sharing an attribute form clusters.
	NumAttrs int
	// Conjunction is the size of the (single) conjunctive root cause;
	// ignored when Disjunction > 0. Minimum 1.
	Conjunction int
	// Disjunction, when positive, builds that many singleton disjuncts as
	// alternative root causes.
	Disjunction int
	// Seed drives coverage assignment and cause placement.
	Seed int64
	// CauseCoverageRank, when positive, forces the (single, conjunction-1)
	// cause's benefit to rank exactly this low among all PVTs — the
	// adversarial scenario of Section 5.2 where GRD needs rank-many
	// interventions. Requires Conjunction == 1 and Disjunction == 0.
	CauseCoverageRank int
	// CauseTopBenefit gives every ground-truth PVT the maximum coverage,
	// making observations O1–O3 hold — the regime of the paper's Figure 8/9
	// scalability sweeps.
	CauseTopBenefit bool
}

// New generates a synthetic scenario.
func New(opts Options) *Scenario {
	if opts.NumPVTs <= 0 {
		opts.NumPVTs = 16
	}
	if opts.NumAttrs <= 0 {
		opts.NumAttrs = 4
	}
	if opts.Conjunction <= 0 {
		opts.Conjunction = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed + 77))

	profiles := make([]*Profile, opts.NumPVTs)
	for i := range profiles {
		profiles[i] = &Profile{
			Index: i,
			Attrs: []string{fmt.Sprintf("a%d", i%opts.NumAttrs)},
			Cov:   0.05 + 0.9*rng.Float64(),
		}
	}

	// Choose the ground-truth cause.
	var disjuncts [][]int
	switch {
	case opts.Disjunction > 0:
		perm := rng.Perm(opts.NumPVTs)
		for i := 0; i < opts.Disjunction && i < opts.NumPVTs; i++ {
			disjuncts = append(disjuncts, []int{perm[i]})
		}
	default:
		perm := rng.Perm(opts.NumPVTs)
		conj := append([]int(nil), perm[:min(opts.Conjunction, opts.NumPVTs)]...)
		disjuncts = [][]int{conj}
	}

	if opts.CauseCoverageRank > 0 && len(disjuncts) == 1 && len(disjuncts[0]) == 1 {
		// Force the cause's benefit to rank exactly CauseCoverageRank:
		// give every PVT a distinct coverage and place the cause at the
		// requested position from the top.
		rank := opts.CauseCoverageRank
		if rank > opts.NumPVTs {
			rank = opts.NumPVTs
		}
		cause := disjuncts[0][0]
		// Descending coverage by a permutation with the cause pinned.
		order := make([]int, 0, opts.NumPVTs)
		for _, p := range rng.Perm(opts.NumPVTs) {
			if p != cause {
				order = append(order, p)
			}
		}
		// Insert cause at position rank-1 (0-based) in the descending order.
		order = append(order[:rank-1], append([]int{cause}, order[rank-1:]...)...)
		for pos, idx := range order {
			profiles[idx].Cov = 1 - float64(pos)/float64(opts.NumPVTs+1)
		}
		// All PVTs share one attribute so the graph filter keeps them all
		// candidates and ordering is purely benefit-driven.
		for _, p := range profiles {
			p.Attrs = []string{"a0"}
		}
	}

	if opts.CauseTopBenefit {
		for _, conj := range disjuncts {
			for _, idx := range conj {
				profiles[idx].Cov = 1
			}
		}
	}

	pvts := make([]*core.PVT, opts.NumPVTs)
	for i, p := range profiles {
		pvts[i] = &core.PVT{
			Profile:    p,
			Transforms: []transform.Transformation{&Transform{P: p}},
		}
	}
	return &Scenario{
		PVTs:        pvts,
		Fail:        FailingDataset(opts.NumPVTs),
		System:      &DNFSystem{Label: "synthetic-dnf", Disjuncts: disjuncts, Profiles: profiles},
		GroundTruth: disjuncts,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Figure6Scenario reproduces the toy example of Figure 6: eight PVTs whose
// dependency graph is the perfect matching {X1,X2},{X3,X4},{X5,X7},{X6,X8}
// and whose ground-truth explanation is {X1,X6} ∨ {X4,X8}.
func Figure6Scenario() *Scenario {
	attrs := [][]string{
		{"a1"}, {"a1"}, // X1, X2
		{"a2"}, {"a2"}, // X3, X4
		{"a3"}, {"a4"}, // X5, X6
		{"a3"}, {"a4"}, // X7, X8
	}
	profiles := make([]*Profile, 8)
	pvts := make([]*core.PVT, 8)
	for i := range profiles {
		profiles[i] = &Profile{Index: i, Attrs: attrs[i], Cov: 0.5}
		pvts[i] = &core.PVT{
			Profile:    profiles[i],
			Transforms: []transform.Transformation{&Transform{P: profiles[i]}},
		}
	}
	disjuncts := [][]int{{0, 5}, {3, 7}} // {X1,X6} ∨ {X4,X8}
	return &Scenario{
		PVTs:        pvts,
		Fail:        FailingDataset(8),
		System:      &DNFSystem{Label: "figure6", Disjuncts: disjuncts, Profiles: profiles},
		GroundTruth: disjuncts,
	}
}
