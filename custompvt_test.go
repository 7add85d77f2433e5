package dataprism_test

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	dataprism "repro"
	"repro/internal/pvt"
	"repro/internal/report"
)

// The test-local monotonicity class mirrors examples/custompvt but is
// default-off and opted in per search, so registering it cannot leak into
// the other facade tests.

type monoProfile struct{ Attr string }

func (p *monoProfile) Type() string         { return "zz-monotone-test" }
func (p *monoProfile) Attributes() []string { return []string{p.Attr} }
func (p *monoProfile) Key() string          { return "zz-monotone-test(" + p.Attr + ")" }
func (p *monoProfile) String() string       { return "⟨Monotone, " + p.Attr + "⟩" }

func (p *monoProfile) SameParams(other dataprism.Profile) bool {
	q, ok := other.(*monoProfile)
	return ok && q.Attr == p.Attr
}

func (p *monoProfile) Violation(d *dataprism.Dataset) float64 {
	vals := d.NumericValues(p.Attr)
	if len(vals) < 2 {
		return 0
	}
	inv := 0
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			inv++
		}
	}
	return float64(inv) / float64(len(vals)-1)
}

type monoSort struct{ prof *monoProfile }

func (t *monoSort) Name() string       { return "sort-ascending" }
func (t *monoSort) Modifies() []string { return []string{t.prof.Attr} }

func (t *monoSort) Coverage(d *dataprism.Dataset) float64 { return t.prof.Violation(d) }

func (t *monoSort) Apply(d *dataprism.Dataset, _ *rand.Rand) (*dataprism.Dataset, error) {
	out := d.Clone()
	vals := make([]float64, out.NumRows())
	for i := range vals {
		vals[i] = out.Num(t.prof.Attr, i)
	}
	sort.Float64s(vals)
	for i, v := range vals {
		out.SetNum(t.prof.Attr, i, v)
	}
	return out, nil
}

type monoClass struct{}

func (monoClass) Name() string         { return "zz-monotone-test" }
func (monoClass) Describe() string     { return "test-only monotonicity class" }
func (monoClass) DefaultEnabled() bool { return false }

func (monoClass) Discover(d *dataprism.Dataset, _ dataprism.DiscoveryOptions) []dataprism.Profile {
	var out []dataprism.Profile
	for _, c := range d.Columns() {
		if c.Kind != dataprism.Numeric {
			continue
		}
		p := &monoProfile{Attr: c.Name}
		if d.NumRows() > 1 && p.Violation(d) == 0 {
			out = append(out, p)
		}
	}
	return out
}

func (monoClass) Transforms(p dataprism.Profile) []dataprism.Transformation {
	if q, ok := p.(*monoProfile); ok {
		return []dataprism.Transformation{&monoSort{prof: q}}
	}
	return nil
}

// TestRegisterClassEndToEnd registers a user-defined PVT class through the
// public facade and proves the whole registry-driven path picks it up:
// discovery honors the DefaultEnabled/Classes opt-in, DataPrismGRD reports
// the class's PVT as the minimal explanation, and the report groups it
// under the class name.
func TestRegisterClassEndToEnd(t *testing.T) {
	var c dataprism.PVTClass = monoClass{}
	if err := dataprism.RegisterClass(c); err != nil {
		t.Fatalf("RegisterClass: %v", err)
	}
	t.Cleanup(func() { pvt.Unregister("zz-monotone-test") })
	if err := dataprism.RegisterClass(c); err == nil {
		t.Fatal("duplicate RegisterClass did not fail")
	}
	if got, ok := dataprism.LookupClass("zz-monotone-test"); !ok || dataprism.ClassDefaultEnabled(got) {
		t.Fatalf("LookupClass = %v, %v; want found and default-off", got, ok)
	}

	const n = 300
	rng := rand.New(rand.NewSource(7))
	ts := make([]float64, n)
	reading := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
		reading[i] = rng.NormFloat64()
	}
	pass := dataprism.NewDataset().
		MustAddNumeric("timestamp", ts).
		MustAddNumeric("reading", reading)
	fail := pass.Clone()
	for i, j := range rng.Perm(n) {
		fail.SetNum("timestamp", i, ts[j])
	}
	sys := &dataprism.SystemFunc{SystemName: "order-sensitive", Score: func(d *dataprism.Dataset) float64 {
		return (&monoProfile{Attr: "timestamp"}).Violation(d)
	}}

	// Default-off: the search must NOT see the class without an opt-in.
	e := &dataprism.Explainer{System: sys, Tau: 0.05, Seed: 1}
	if res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(pass, fail), fail); err == nil && res.Found {
		t.Fatalf("default-off class leaked into discovery: %s", res.ExplanationString())
	}

	opts := dataprism.DefaultDiscoveryOptions()
	opts.Classes = map[string]bool{"zz-monotone-test": true}
	e = &dataprism.Explainer{System: sys, Tau: 0.05, Seed: 1, Options: &opts}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(pass, fail), fail)
	if err != nil {
		t.Fatalf("ExplainGreedy: %v", err)
	}
	if !res.Found || len(res.Explanation) != 1 {
		t.Fatalf("explanation = %s, want exactly the monotone PVT", res.ExplanationString())
	}
	p := res.Explanation[0]
	if _, ok := p.Profile.(*monoProfile); !ok {
		t.Fatalf("explanation profile is %T, want *monoProfile", p.Profile)
	}
	if got := dataprism.ClassOf(p.Profile); got != "zz-monotone-test" {
		t.Errorf("ClassOf = %q, want zz-monotone-test", got)
	}
	if res.FinalScore > 0.05 {
		t.Errorf("final score = %g, want ≤ tau", res.FinalScore)
	}

	md := report.Summary{SystemName: sys.Name(), Tau: 0.05, FailScore: res.InitialScore, Result: res}.Markdown()
	if !strings.Contains(md, "- **zz-monotone-test**") {
		t.Errorf("markdown report does not group by the custom class:\n%s", md)
	}
}
