package dataprism_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	dataprism "repro"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/transform"
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

// unregisterClass undoes a RegisterClass in the process-wide catalog.
func unregisterClass(name string) {
	profile.UnregisterDiscoverer(name)
	transform.UnregisterBuilder(name)
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
	t.Cleanup(func() { unregisterClass("zz-monotone-test") })
	if err := dataprism.RegisterClass(c); err == nil {
		t.Fatal("duplicate RegisterClass did not fail")
	}
	if names := dataprism.ClassNames(); !slices.Contains(names, "zz-monotone-test") {
		t.Fatalf("ClassNames = %v, want zz-monotone-test listed", names)
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

	opts := dataprism.DiscoveryOptions{}
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
	if res.FinalScore > 0.05 {
		t.Errorf("final score = %g, want ≤ tau", res.FinalScore)
	}

	md := report.Summary{SystemName: sys.Name(), Tau: 0.05, FailScore: res.InitialScore, Result: res}.Markdown()
	if !strings.Contains(md, "- **zz-monotone-test**") {
		t.Errorf("markdown report does not group by the custom class:\n%s", md)
	}
}

// TestClassNamesSortedWithBuiltins checks the joined catalog: ClassNames is
// name-sorted, lists every built-in class, and each listed class has a
// description and a transformation builder.
func TestClassNamesSortedWithBuiltins(t *testing.T) {
	names := dataprism.ClassNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("ClassNames not name-sorted: %v", names)
	}
	for _, want := range []string{"conditional", "distribution", "domain", "fd", "frequency",
		"inclusion", "indep", "indep-causal", "missing", "outlier", "selectivity", "unique"} {
		if !slices.Contains(names, want) {
			t.Errorf("built-in class %q missing from ClassNames: %v", want, names)
		}
	}
	for _, name := range names {
		if d, ok := profile.LookupDiscoverer(name); !ok || d.Describe == "" {
			t.Errorf("class %q has no description", name)
		}
		if _, ok := transform.LookupBuilder(name); !ok {
			t.Errorf("class %q has no transformation builder", name)
		}
	}
}

// TestRegisterClassRoutesRepair drives a registered class through the
// registry surfaces below the search: discovery with and without the
// Classes opt-in, transform.ForProfile routing by the profile's Type(), and
// the routed repair clearing the violation.
func TestRegisterClassRoutesRepair(t *testing.T) {
	dataprism.MustRegisterClass(monoClass{})
	t.Cleanup(func() { unregisterClass("zz-monotone-test") })

	sorted := dataprism.NewDataset().MustAddNumeric("n", []float64{1, 2, 3, 4})
	for _, p := range dataprism.DiscoverProfiles(sorted, dataprism.DiscoveryOptions{}) {
		if p.Type() == "zz-monotone-test" {
			t.Fatal("default-off class discovered without opt-in")
		}
	}
	var mine dataprism.Profile
	opts := dataprism.DiscoveryOptions{Classes: map[string]bool{"zz-monotone-test": true}}
	for _, p := range dataprism.DiscoverProfiles(sorted, opts) {
		if p.Type() == "zz-monotone-test" {
			mine = p
		}
	}
	if mine == nil {
		t.Fatal("opted-in class not discovered")
	}

	shuffled := dataprism.NewDataset().MustAddNumeric("n", []float64{4, 3, 1, 2})
	if v := mine.Violation(shuffled); v != 2.0/3 {
		t.Errorf("violation = %v, want 2/3", v)
	}
	ts := transform.ForProfile(mine)
	if len(ts) != 1 || ts[0].Name() != "sort-ascending" {
		t.Fatalf("ForProfile did not route to the class's repair: %v", ts)
	}
	fixed, err := ts[0].Apply(shuffled, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v := mine.Violation(fixed); v != 0 {
		t.Errorf("violation after repair = %v, want 0", v)
	}
}

// TestRegisterClassRollback checks that RegisterClass fails when the
// builder's name is taken and leaves no discovery half behind.
func TestRegisterClassRollback(t *testing.T) {
	transform.MustRegisterBuilder("zz-monotone-test", func(dataprism.Profile) []dataprism.Transformation { return nil })
	t.Cleanup(func() { transform.UnregisterBuilder("zz-monotone-test") })
	if err := dataprism.RegisterClass(monoClass{}); err == nil {
		t.Fatal("RegisterClass over a taken builder name did not fail")
	}
	if names := dataprism.ClassNames(); slices.Contains(names, "zz-monotone-test") {
		t.Errorf("discovery half not rolled back after a failed RegisterClass: %v", names)
	}
}

// misnamedClass registers under its own name but discovers profiles whose
// Type() names the monotonicity class.
type misnamedClass struct{ monoClass }

func (misnamedClass) Name() string { return "zz-misnamed-test" }

// TestMisnamedClassPanicsDiscovery checks that discovery refuses a class
// whose profiles do not name it: routing by name would otherwise drop their
// transformations without a word.
func TestMisnamedClassPanicsDiscovery(t *testing.T) {
	dataprism.MustRegisterClass(misnamedClass{})
	t.Cleanup(func() { unregisterClass("zz-misnamed-test") })
	d := dataprism.NewDataset().MustAddNumeric("ts", []float64{1, 2, 3})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"zz-misnamed-test"`) || !strings.Contains(msg, `"zz-monotone-test"`) {
			t.Errorf("discovery panic %q does not name both the class and its profile's Type", msg)
		}
	}()
	dataprism.DiscoverProfiles(d, dataprism.DiscoveryOptions{Classes: map[string]bool{"zz-misnamed-test": true}})
}
