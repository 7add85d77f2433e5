package pvt_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/pvt"
	"repro/internal/transform"
)

// evenProfile is a throwaway test class: every value of Attr should be even.
type evenProfile struct{ Attr string }

func (p *evenProfile) Type() string         { return "zz-even-test" }
func (p *evenProfile) Attributes() []string { return []string{p.Attr} }
func (p *evenProfile) Key() string          { return "zz-even-test(" + p.Attr + ")" }
func (p *evenProfile) String() string       { return p.Key() }

func (p *evenProfile) SameParams(other profile.Profile) bool {
	q, ok := other.(*evenProfile)
	return ok && q.Attr == p.Attr
}

func (p *evenProfile) Violation(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	odd := 0
	for r := 0; r < d.NumRows(); r++ {
		if int(d.Num(p.Attr, r))%2 != 0 {
			odd++
		}
	}
	return float64(odd) / float64(d.NumRows())
}

type doubleEven struct{ prof *evenProfile }

func (t *doubleEven) Name() string                        { return "double-even" }
func (t *doubleEven) Modifies() []string                  { return []string{t.prof.Attr} }
func (t *doubleEven) Coverage(d *dataset.Dataset) float64 { return t.prof.Violation(d) }
func (t *doubleEven) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	for r := 0; r < out.NumRows(); r++ {
		out.SetNum(t.prof.Attr, r, 2*out.Num(t.prof.Attr, r))
	}
	return out, nil
}

type evenClass struct{ defaultOn bool }

func (c *evenClass) Name() string         { return "zz-even-test" }
func (c *evenClass) Describe() string     { return "test class: numeric values must be even" }
func (c *evenClass) DefaultEnabled() bool { return c.defaultOn }

func (c *evenClass) Discover(d *dataset.Dataset, _ profile.Options) []profile.Profile {
	var out []profile.Profile
	for _, col := range d.Columns() {
		if col.Kind == dataset.Numeric {
			out = append(out, &evenProfile{Attr: col.Name})
		}
	}
	return out
}

func (c *evenClass) Transforms(p profile.Profile) []transform.Transformation {
	if q, ok := p.(*evenProfile); ok {
		return []transform.Transformation{&doubleEven{prof: q}}
	}
	return nil
}

func TestAllNameSortedWithBuiltins(t *testing.T) {
	all := pvt.All()
	names := make([]string, len(all))
	for i, c := range all {
		names[i] = c.Name()
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("All() not name-sorted: %v", names)
	}
	want := []string{
		"conditional", "distribution", "domain", "fd", "frequency",
		"inclusion", "indep", "indep-causal", "missing", "outlier",
		"selectivity", "unique",
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Errorf("built-in class %q missing from All(): %v", n, names)
		}
	}
	got := pvt.Names()
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("Names() = %v inconsistent with All() = %v", got, names)
	}
	for _, c := range all {
		if c.Describe() == "" {
			t.Errorf("class %q has empty Describe", c.Name())
		}
	}
}

func TestLookup(t *testing.T) {
	c, ok := pvt.Lookup("domain")
	if !ok {
		t.Fatal("Lookup(domain) not found")
	}
	if !pvt.DefaultEnabled(c) {
		t.Error("domain should be default-enabled")
	}
	ts := c.Transforms(&profile.Missing{Attr: "a"})
	if len(ts) != 0 {
		t.Errorf("domain class claimed a missing profile: %v", ts)
	}
	if _, ok := pvt.Lookup("no-such-class"); ok {
		t.Error("Lookup of unknown class succeeded")
	}
	fd, _ := pvt.Lookup("fd")
	if pvt.DefaultEnabled(fd) {
		t.Error("fd should be default-disabled")
	}
}

func TestRegisterDuplicateAndRollback(t *testing.T) {
	if err := pvt.Register(&evenClass{}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := pvt.Register(&evenClass{}); err == nil {
		t.Error("duplicate Register did not fail")
	}
	pvt.Unregister("zz-even-test")
	if _, ok := pvt.Lookup("zz-even-test"); ok {
		t.Fatal("class still present after Unregister")
	}

	// When the transform half is already taken, Register must fail AND roll
	// back the discovery half so the catalog stays consistent.
	transform.MustRegisterBuilder("zz-even-test", func(p profile.Profile) []transform.Transformation { return nil })
	defer transform.UnregisterBuilder("zz-even-test")
	if err := pvt.Register(&evenClass{}); err == nil {
		t.Fatal("Register over taken builder name did not fail")
	}
	if _, ok := profile.LookupDiscoverer("zz-even-test"); ok {
		t.Error("discovery half not rolled back after failed Register")
	}
}

// TestCustomClassEndToEnd drives a registered class through the same
// registry surfaces production code uses: profile.Discover with a Classes
// opt-in, transform.ForProfile, and ClassOf.
func TestCustomClassEndToEnd(t *testing.T) {
	pvt.MustRegister(&evenClass{defaultOn: false})
	defer pvt.Unregister("zz-even-test")

	d := dataset.New().MustAddNumeric("n", []float64{1, 2, 3, 4})

	// Default-off: not discovered without opt-in.
	for _, p := range profile.Discover(d, profile.Options{}) {
		if p.Type() == "zz-even-test" {
			t.Fatal("default-off class discovered without opt-in")
		}
	}

	opts := profile.Options{Classes: map[string]bool{"zz-even-test": true}}
	var mine profile.Profile
	for _, p := range profile.Discover(d, opts) {
		if p.Type() == "zz-even-test" {
			mine = p
		}
	}
	if mine == nil {
		t.Fatal("opted-in class not discovered")
	}
	if v := mine.Violation(d); v != 0.5 {
		t.Errorf("violation = %v, want 0.5", v)
	}
	ts := transform.ForProfile(mine)
	if len(ts) != 1 || ts[0].Name() != "double-even" {
		t.Fatalf("ForProfile did not route to custom transform: %v", ts)
	}
	if got := pvt.ClassOf(mine); got != "zz-even-test" {
		t.Errorf("ClassOf = %q, want zz-even-test", got)
	}
	fixed, err := ts[0].Apply(d, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if v := mine.Violation(fixed); v != 0 {
		t.Errorf("violation after repair = %v, want 0", v)
	}
}
