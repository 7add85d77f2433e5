package transform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/profile"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestMapToDomainSentimentLabels(t *testing.T) {
	// The sentiment case study: failing labels {0,4} must map onto {-1,1}.
	p := &profile.DomainCategorical{Attr: "target", Values: map[string]bool{"-1": true, "1": true}}
	d := dataset.New().MustAddCategorical("target", []string{"0", "4", "0", "4", "4"})
	tr := &MapToDomain{Profile: p}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-1", "1", "-1", "1", "1"}
	for i, w := range want {
		if got := out.Str("target", i); got != w {
			t.Errorf("row %d: %q, want %q", i, got, w)
		}
	}
	if p.Violation(out) != 0 {
		t.Error("violation not eliminated")
	}
	if d.Str("target", 0) != "0" {
		t.Error("Apply mutated the input dataset")
	}
	if cov := tr.Coverage(d); cov != 1 {
		t.Errorf("Coverage = %g, want 1 (all rows invalid)", cov)
	}
}

func TestMapToDomainPartial(t *testing.T) {
	p := &profile.DomainCategorical{Attr: "g", Values: map[string]bool{"F": true, "M": true}}
	d := dataset.New().MustAddCategorical("g", []string{"F", "X", "M", "F"})
	out, err := (&MapToDomain{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.Str("g", 0) != "F" || out.Str("g", 2) != "M" {
		t.Error("valid values must be untouched")
	}
	if v := out.Str("g", 1); v != "F" && v != "M" {
		t.Errorf("invalid value mapped to %q", v)
	}
}

func TestMapToDomainNoopAndErrors(t *testing.T) {
	p := &profile.DomainCategorical{Attr: "g", Values: map[string]bool{"F": true}}
	clean := dataset.New().MustAddCategorical("g", []string{"F", "F"})
	out, err := (&MapToDomain{Profile: p}).Apply(clean, rng())
	if err != nil || !out.Equal(clean) {
		t.Error("no-op apply should clone unchanged")
	}
	missing := dataset.New().MustAddNumeric("g", []float64{1})
	if _, err := (&MapToDomain{Profile: p}).Apply(missing, rng()); err == nil {
		t.Error("numeric column should error")
	}
}

func TestLinearMapUnitConversion(t *testing.T) {
	// Heights recorded in inches must return to the cm domain.
	cm := []float64{150, 160, 170, 180, 190}
	inches := make([]float64, len(cm))
	for i, v := range cm {
		inches[i] = v / 2.54
	}
	p := &profile.DomainNumeric{Attr: "height", Lo: 150, Hi: 190}
	d := dataset.New().MustAddNumeric("height", inches)
	out, err := (&LinearMap{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cm {
		if got := out.Num("height", i); math.Abs(got-want) > 1e-9 {
			t.Errorf("row %d: %g, want %g", i, got, want)
		}
	}
	if p.Violation(out) != 0 {
		t.Error("violation not eliminated")
	}
	if cov := (&LinearMap{Profile: p}).Coverage(d); cov != 1 {
		t.Errorf("Coverage = %g, want 1", cov)
	}
	if cov := (&LinearMap{Profile: p}).Coverage(out); cov != 0 {
		t.Errorf("Coverage of satisfied dataset = %g, want 0", cov)
	}
}

func TestLinearMapConstantColumn(t *testing.T) {
	p := &profile.DomainNumeric{Attr: "x", Lo: 10, Hi: 20}
	d := dataset.New().MustAddNumeric("x", []float64{99, 99})
	out, err := (&LinearMap{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.Num("x", 0) != 10 {
		t.Errorf("constant column should map to Lo, got %g", out.Num("x", 0))
	}
}

func TestWinsorize(t *testing.T) {
	p := &profile.DomainNumeric{Attr: "age", Lo: 22, Hi: 51}
	d := dataset.New().MustAddNumeric("age", []float64{45, 60, 20, 30})
	tr := &Winsorize{Profile: p}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{45, 51, 22, 30}
	for i, w := range want {
		if got := out.Num("age", i); got != w {
			t.Errorf("row %d: %g, want %g", i, got, w)
		}
	}
	if cov := tr.Coverage(d); cov != 0.5 {
		t.Errorf("Coverage = %g, want 0.5", cov)
	}
}

func TestConformText(t *testing.T) {
	p := &profile.DomainText{Attr: "zip", Pattern: pattern.Learn([]string{"01004", "94107"})}
	d := dataset.New().MustAddText("zip", []string{"01009", "123", "abcdef"})
	out, err := (&ConformText{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation(out) != 0 {
		t.Errorf("violation not eliminated: %v", out)
	}
	if out.Str("zip", 0) != "01009" {
		t.Error("matching value should be untouched")
	}
}

func TestReplaceOutliers(t *testing.T) {
	vals := []float64{10, 11, 9, 10, 12, 8, 10, 11, 9, 100}
	d := dataset.New().MustAddNumeric("v", vals)
	p := &profile.Outlier{Attr: "v", K: 1.5, Theta: 0}
	tr := &ReplaceOutliers{Profile: p}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Num("v", 9); got != 19 {
		t.Errorf("outlier replaced by %g, want the mean 19", got)
	}
	if out.Num("v", 0) != 10 {
		t.Error("inlier modified")
	}
	if cov := tr.Coverage(d); cov != 0.1 {
		t.Errorf("Coverage = %g, want 0.1", cov)
	}
}

func TestClampOutliers(t *testing.T) {
	vals := []float64{10, 11, 9, 10, 12, 8, 10, 11, 9, 100}
	d := dataset.New().MustAddNumeric("v", vals)
	p := &profile.Outlier{Attr: "v", K: 1.5, Theta: 0}
	out, err := (&ClampOutliers{Profile: p}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Num("v", 9); got >= 100 {
		t.Error("outlier not clamped")
	}
	if out.Num("v", 9) <= out.Num("v", 4) {
		t.Error("clamp should land at the valid upper limit, above inliers")
	}
}

func TestImpute(t *testing.T) {
	d := dataset.New()
	if err := d.AddNumericColumn("x", []float64{1, 0, 3}, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCategoricalColumn("g", []string{"a", "a", ""}, []bool{false, false, true}); err != nil {
		t.Fatal(err)
	}
	numP := &profile.Missing{Attr: "x", Theta: 0}
	out, err := (&Impute{Profile: numP}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.IsNull("x", 1) || out.Num("x", 1) != 2 {
		t.Errorf("numeric impute = %g (null=%v), want mean 2", out.Num("x", 1), out.IsNull("x", 1))
	}
	catP := &profile.Missing{Attr: "g", Theta: 0}
	out2, err := (&Impute{Profile: catP}).Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out2.IsNull("g", 2) || out2.Str("g", 2) != "a" {
		t.Error("categorical impute should fill mode")
	}
	tie := dataset.New()
	if err := tie.AddCategoricalColumn("g", []string{"c", "b", "c", "b", ""}, []bool{false, false, false, false, true}); err != nil {
		t.Fatal(err)
	}
	out3, err := (&Impute{Profile: catP}).Apply(tie, rng())
	if err != nil {
		t.Fatal(err)
	}
	if got := out3.Str("g", 4); got != "b" {
		t.Errorf("tied mode imputed %q, want the smallest value \"b\"", got)
	}
	if cov := (&Impute{Profile: numP}).Coverage(d); math.Abs(cov-1.0/3) > 1e-12 {
		t.Errorf("Coverage = %g", cov)
	}
}

func TestForProfileDispatch(t *testing.T) {
	cases := []struct {
		p    profile.Profile
		want int
	}{
		{&profile.DomainCategorical{Attr: "a", Values: map[string]bool{"x": true}}, 1},
		{&profile.DomainNumeric{Attr: "a"}, 2},
		{&profile.DomainText{Attr: "a", Pattern: pattern.Learn([]string{"x"})}, 1},
		{&profile.Outlier{Attr: "a", K: 1.5}, 2},
		{&profile.Missing{Attr: "a"}, 1},
		{&profile.Selectivity{Pred: dataset.And(dataset.EqStr("a", "x"))}, 1},
		{&profile.IndepChi{AttrA: "a", AttrB: "b"}, 2},
		{&profile.IndepPearson{AttrA: "a", AttrB: "b"}, 2},
		{&profile.IndepCausal{AttrA: "a", AttrB: "b"}, 1},
	}
	for _, tc := range cases {
		got := ForProfile(tc.p)
		if len(got) != tc.want {
			t.Errorf("ForProfile(%T) = %d transformations, want %d", tc.p, len(got), tc.want)
		}
		for _, tr := range got {
			if len(tr.Modifies()) == 0 {
				t.Errorf("%s reports no modified attributes", tr.Name())
			}
		}
	}
	if got := ForProfile(nil); got != nil {
		t.Error("nil profile should yield no transformations")
	}
}
