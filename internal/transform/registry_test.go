package transform

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/profile"
)

func TestBuilderDuplicateRejected(t *testing.T) {
	b := func(p profile.Profile) []Transformation { return nil }
	if err := RegisterBuilder("dup-builder-test", b); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	defer UnregisterBuilder("dup-builder-test")
	if err := RegisterBuilder("dup-builder-test", b); err == nil {
		t.Fatal("duplicate registration did not fail")
	}
	if err := RegisterBuilder("", b); err == nil {
		t.Error("empty-name registration did not fail")
	}
	if err := RegisterBuilder("nil-builder", nil); err == nil {
		t.Error("nil-builder registration did not fail")
	}
}

// TestForProfileRouting checks every built-in profile type names its class
// in Type() and routes to that class's transformations through the
// registry, matching the pre-registry type-switch arm for arm.
func TestForProfileRouting(t *testing.T) {
	cases := []struct {
		p     profile.Profile
		class string
		names []string
	}{
		{&profile.DomainCategorical{Attr: "a", Values: map[string]bool{"x": true}}, "domain", []string{"map-to-domain"}},
		{&profile.DomainNumeric{Attr: "a", Lo: 0, Hi: 1}, "domain", []string{"linear-map", "winsorize"}},
		{&profile.DomainText{Attr: "a", Pattern: pattern.Learn([]string{"x"})}, "domain", []string{"conform-pattern"}},
		{&profile.Outlier{Attr: "a", K: 1.5}, "outlier", []string{"replace-outliers-mean", "clamp-outliers"}},
		{&profile.Missing{Attr: "a"}, "missing", []string{"impute"}},
		{&profile.Selectivity{Pred: dataset.And(dataset.EqStr("a", "x"))}, "selectivity", []string{"resample"}},
		{&profile.IndepChi{AttrA: "a", AttrB: "b"}, "indep", []string{"shuffle-b", "shuffle-a"}},
		{&profile.IndepPearson{AttrA: "a", AttrB: "b"}, "indep", []string{"noise-b", "noise-a"}},
		{&profile.IndepCausal{AttrA: "a", AttrB: "b"}, "indep-causal", []string{"causal-break"}},
		{&profile.Distribution{Attr: "a", Quantiles: []float64{0, 1}}, "distribution", []string{"quantile-map", "median-shift"}},
		{&profile.FuncDep{Det: "a", Dep: "b"}, "fd", []string{"fd-repair"}},
		{&profile.Unique{Attr: "a"}, "unique", []string{"deduplicate"}},
		{&profile.Inclusion{Child: "a", Parent: "b"}, "inclusion", []string{"repair-inclusion"}},
		{&profile.Frequency{Attr: "a", MedianGap: 1}, "frequency", []string{"recadence"}},
		{&profile.Conditional{Cond: dataset.And(dataset.EqStr("c", "x")), Inner: &profile.Missing{Attr: "a"}}, "conditional", []string{"conditional-impute"}},
	}
	for _, tc := range cases {
		if got := tc.p.Type(); got != tc.class {
			t.Errorf("%s: Type() = %q, want class %q", tc.p, got, tc.class)
		}
		ts := ForProfile(tc.p)
		if len(ts) != len(tc.names) {
			t.Errorf("%s: got %d transformations, want %d", tc.p, len(ts), len(tc.names))
			continue
		}
		for i, tr := range ts {
			if tr.Name() != tc.names[i] {
				t.Errorf("%s: transform %d = %q, want %q", tc.p, i, tr.Name(), tc.names[i])
			}
		}
	}
}

// TestCustomBuilderExtension registers a throwaway class end to end: its
// profile's Type() names it, and ForProfile routes to it.
type fakeProfile struct{ profile.Missing }

func (p *fakeProfile) Type() string { return "zz-fake-test" }
func (p *fakeProfile) Key() string  { return "fake:" + p.Attr }

type fakeTransform struct{ prof *fakeProfile }

func (t *fakeTransform) Name() string       { return "fake-fix" }
func (t *fakeTransform) Modifies() []string { return []string{t.prof.Attr} }
func (t *fakeTransform) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	return d.Clone(), nil
}
func (t *fakeTransform) Coverage(d *dataset.Dataset) float64 { return 0 }

func TestCustomBuilderExtension(t *testing.T) {
	MustRegisterBuilder("zz-fake-test", func(p profile.Profile) []Transformation {
		if q, ok := p.(*fakeProfile); ok {
			return []Transformation{&fakeTransform{prof: q}}
		}
		return nil
	})
	defer UnregisterBuilder("zz-fake-test")

	fp := &fakeProfile{}
	fp.Attr = "a"
	ts := ForProfile(fp)
	if len(ts) != 1 || ts[0].Name() != "fake-fix" {
		t.Fatalf("custom builder not routed: %v", ts)
	}
	// The embedded built-in profile still routes to its own class.
	if ts := ForProfile(&fp.Missing); len(ts) != 1 || ts[0].Name() != "impute" {
		t.Errorf("ForProfile(Missing) = %v, want impute", ts)
	}
}
