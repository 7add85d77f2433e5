package transform

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/profile"
	"repro/internal/stats"
)

func normals(n int, mean, sd float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sd*rng.NormFloat64()
	}
	return out
}

func TestQuantileMap(t *testing.T) {
	ref := dataset.New().MustAddNumeric("v", normals(2000, 100, 10, 1))
	p := profile.DiscoverDistribution(ref, "v")
	drifted := dataset.New().MustAddNumeric("v", normals(2000, 160, 25, 2))
	if p.Violation(drifted) < 0.3 {
		t.Fatal("setup: drift expected")
	}
	tr := &QuantileMap{Profile: p}
	out, err := tr.Apply(drifted, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(out); v > 0.05 {
		t.Errorf("violation after quantile map = %g", v)
	}
	m := stats.Mean(out.NumericValues("v"))
	if math.Abs(m-100) > 2 {
		t.Errorf("mapped mean = %g, want ≈100", m)
	}
	// Monotonicity: order of values preserved.
	if out.Num("v", 0) == out.Num("v", 1) && drifted.Num("v", 0) != drifted.Num("v", 1) {
		t.Log("tied mapped values are acceptable only at clamped extremes")
	}
	if cov := tr.Coverage(drifted); cov != 1 {
		t.Errorf("Coverage = %g", cov)
	}
	if cov := tr.Coverage(out); cov != 0 {
		t.Errorf("Coverage after fix = %g", cov)
	}
}

func TestMedianShift(t *testing.T) {
	ref := dataset.New().MustAddNumeric("v", normals(2000, 100, 10, 3))
	p := profile.DiscoverDistribution(ref, "v")
	// Pure location drift: shape identical, mean off by +40.
	shifted := dataset.New().MustAddNumeric("v", normals(2000, 140, 10, 4))
	tr := &MedianShift{Profile: p}
	out, err := tr.Apply(shifted, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(out); v > 0.05 {
		t.Errorf("violation after median shift = %g", v)
	}
	if _, err := tr.Apply(dataset.New().MustAddCategorical("v", []string{"x"}), rng()); err == nil {
		t.Error("categorical column should error")
	}
}

func TestFDRepair(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("zip", []string{"01004", "01004", "01004", "94107", "94107"}).
		MustAddCategorical("city", []string{"amherst", "amherst", "OOPS", "sf", "sf"})
	p := &profile.FuncDep{Det: "zip", Dep: "city", Epsilon: 0}
	tr := &FDRepair{Profile: p}
	if cov := tr.Coverage(d); math.Abs(cov-0.2) > 1e-9 {
		t.Errorf("Coverage = %g", cov)
	}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.Str("city", 2) != "amherst" {
		t.Errorf("violating tuple repaired to %q", out.Str("city", 2))
	}
	if p.Violation(out) != 0 {
		t.Error("FD violation not eliminated")
	}
	// Unrelated rows untouched.
	if out.Str("city", 3) != "sf" {
		t.Error("conforming tuple modified")
	}
	bad := dataset.New().MustAddNumeric("zip", []float64{1}).MustAddCategorical("city", []string{"x"})
	if _, err := tr.Apply(bad, rng()); err == nil {
		t.Error("numeric determinant should error")
	}
}

func TestForProfileExtendedDispatch(t *testing.T) {
	dist := &profile.Distribution{Attr: "v", Quantiles: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}
	if got := ForProfile(dist); len(got) != 2 {
		t.Errorf("Distribution transforms = %d, want 2", len(got))
	}
	fd := &profile.FuncDep{Det: "a", Dep: "b"}
	if got := ForProfile(fd); len(got) != 1 {
		t.Errorf("FD transforms = %d, want 1", len(got))
	}
}

func TestConformTextMulti(t *testing.T) {
	train := dataset.New().MustAddText("phone", []string{
		"555-123-4567", "662-987-6543", "(555) 123-4567", "(816) 765-4321",
	})
	opts := profile.DefaultOptions()
	opts.TextAlternations = 4
	var multi *profile.DomainTextMulti
	for _, p := range profile.Discover(train, opts) {
		if m, ok := p.(*profile.DomainTextMulti); ok {
			multi = m
		}
	}
	if multi == nil {
		t.Fatal("no multi-format profile discovered")
	}
	bad := dataset.New().MustAddText("phone", []string{"999-111-222", "(12) 34-5678", "555-123-4567"})
	tr := &ConformTextMulti{Profile: multi}
	out, err := tr.Apply(bad, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := multi.Violation(out); v != 0 {
		t.Errorf("violation after conform = %g: %v", v, out)
	}
	if out.Str("phone", 2) != "555-123-4567" {
		t.Error("matching value modified")
	}
	if cov := tr.Coverage(bad); math.Abs(cov-2.0/3) > 1e-9 {
		t.Errorf("Coverage = %g", cov)
	}
	if tr.Name() == "" || len(tr.Modifies()) != 1 {
		t.Error("metadata wrong")
	}
}

func TestDeduplicate(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("id", []string{"a", "b", "a", "c", "b"}).
		MustAddNumeric("v", []float64{1, 2, 3, 4, 5})
	p := &profile.Unique{Attr: "id", Theta: 0}
	tr := &Deduplicate{Profile: p}
	if cov := tr.Coverage(d); math.Abs(cov-0.4) > 1e-9 {
		t.Errorf("Coverage = %g", cov)
	}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", out.NumRows())
	}
	// First occurrences are kept (values 1, 2, 4).
	if out.Num("v", 0) != 1 || out.Num("v", 1) != 2 || out.Num("v", 2) != 4 {
		t.Errorf("kept wrong rows: %v", out.NumericValues("v"))
	}
	if p.Violation(out) != 0 {
		t.Error("violation not eliminated")
	}
	if _, err := (&Deduplicate{Profile: &profile.Unique{Attr: "zz"}}).Apply(d, rng()); err == nil {
		t.Error("missing column should error")
	}
}

// TestTransformationMetadataSweep asserts the uniform metadata contract —
// non-empty Name, a Target echoing the source profile, and non-empty
// Modifies — across every transformation ForProfile can construct.
func TestTransformationMetadataSweep(t *testing.T) {
	profiles := []profile.Profile{
		&profile.DomainCategorical{Attr: "a", Values: map[string]bool{"x": true}},
		&profile.DomainNumeric{Attr: "a", Lo: 0, Hi: 1},
		&profile.DomainText{Attr: "a", Pattern: pattern.Learn([]string{"x"})},
		&profile.DomainTextMulti{Attr: "a", Alt: pattern.LearnAlternation([]string{"x", "9"}, 0)},
		&profile.Outlier{Attr: "a", K: 1.5},
		&profile.Missing{Attr: "a"},
		&profile.Selectivity{Pred: dataset.And(dataset.EqStr("a", "x")), Theta: 0.5},
		&profile.IndepChi{AttrA: "a", AttrB: "b"},
		&profile.IndepPearson{AttrA: "a", AttrB: "b"},
		&profile.IndepCausal{AttrA: "a", AttrB: "b"},
		&profile.Distribution{Attr: "a", Quantiles: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
		&profile.FuncDep{Det: "a", Dep: "b"},
		&profile.Unique{Attr: "a"},
		&profile.Conditional{Cond: dataset.And(dataset.EqStr("c", "y")), Inner: &profile.Missing{Attr: "a"}},
	}
	for _, p := range profiles {
		trs := ForProfile(p)
		if len(trs) == 0 {
			t.Errorf("%T has no transformations", p)
			continue
		}
		for _, tr := range trs {
			if tr.Name() == "" {
				t.Errorf("%T transformation has empty name", p)
			}
			if tr.Target() == nil || tr.Target().Key() != p.Key() {
				t.Errorf("%s target mismatch", tr.Name())
			}
			if len(tr.Modifies()) == 0 {
				t.Errorf("%s modifies nothing", tr.Name())
			}
			// Coverage on an empty dataset must be 0 and never panic.
			if cov := tr.Coverage(dataset.New()); cov != 0 {
				t.Errorf("%s coverage on empty dataset = %g", tr.Name(), cov)
			}
		}
	}
}

func TestRepairInclusion(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("ship_zip", []string{"01004", "99999", "94107"}).
		MustAddCategorical("known_zip", []string{"01004", "94107", "94107"})
	p := &profile.Inclusion{Child: "ship_zip", Parent: "known_zip"}
	tr := &RepairInclusion{Profile: p}
	if cov := tr.Coverage(d); math.Abs(cov-1.0/3) > 1e-9 {
		t.Errorf("Coverage = %g", cov)
	}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if p.Violation(out) != 0 {
		t.Errorf("IND violation not eliminated: %v", out.StringValues("ship_zip"))
	}
	if out.Str("ship_zip", 0) != "01004" || out.Str("ship_zip", 2) != "94107" {
		t.Error("referenced values must be untouched")
	}
	bad := dataset.New().MustAddCategorical("ship_zip", []string{"x"}).MustAddNumeric("known_zip", []float64{1})
	if _, err := tr.Apply(bad, rng()); err == nil {
		t.Error("numeric parent should error")
	}
}

func TestRecadence(t *testing.T) {
	weekly := make([]float64, 40)
	daily := make([]float64, 40)
	for i := range weekly {
		weekly[i] = 100 + float64(i)*7
		daily[i] = 100 + float64(i)
	}
	ref := dataset.New().MustAddNumeric("ts", weekly)
	p := profile.DiscoverFrequency(ref, "ts")
	d := dataset.New().MustAddNumeric("ts", daily)
	if p.Violation(d) < 0.9 {
		t.Fatal("setup: daily feed should violate the weekly cadence")
	}
	tr := &Recadence{Profile: p}
	if cov := tr.Coverage(d); cov != 1 {
		t.Errorf("Coverage = %g", cov)
	}
	out, err := tr.Apply(d, rng())
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Violation(out); v > 0.01 {
		t.Errorf("violation after recadence = %g", v)
	}
	// The origin is preserved: the first timestamp stays put.
	if out.Num("ts", 0) != 100 {
		t.Errorf("origin moved to %g", out.Num("ts", 0))
	}
	bad := dataset.New().MustAddNumeric("ts", []float64{1})
	if _, err := tr.Apply(bad, rng()); err == nil {
		t.Error("unmeasurable cadence should error")
	}
}

// TestRecadenceNaNFirst: a NaN first cell must not become the rescaling
// origin. The finite cells rescale around the finite minimum exactly as
// they do when the NaN sits last, and the NaN cell stays NaN.
func TestRecadenceNaNFirst(t *testing.T) {
	tr := &Recadence{Profile: &profile.Frequency{Attr: "ts", MedianGap: 5}}
	for _, nanRow := range []int{0, 20} {
		vals := make([]float64, 0, 21)
		for i := 0; i < 20; i++ {
			vals = append(vals, float64(i)*10)
		}
		vals = append(vals[:nanRow], append([]float64{math.NaN()}, vals[nanRow:]...)...)
		out, err := tr.Apply(dataset.New().MustAddNumeric("ts", vals), rng())
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			got := out.Num("ts", i)
			if math.IsNaN(v) {
				if !math.IsNaN(got) {
					t.Errorf("NaN at row %d: NaN cell became %g", nanRow, got)
				}
				continue
			}
			if want := v / 2; got != want {
				t.Errorf("NaN at row %d: row %d = %g, want %g", nanRow, i, got, want)
			}
		}
	}
}
