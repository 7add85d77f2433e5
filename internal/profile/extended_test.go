package profile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func normalData(n int, mean, sd float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = mean + sd*rng.NormFloat64()
	}
	return out
}

func TestDistributionProfile(t *testing.T) {
	ref := dataset.New().MustAddNumeric("v", normalData(2000, 100, 10, 1))
	p := DiscoverDistribution(ref, "v")
	if p == nil {
		t.Fatal("discovery failed")
	}
	if v := p.Violation(ref); v > 0.02 {
		t.Errorf("self-violation = %g, want ≈0", v)
	}
	// Same distribution, different sample: still low violation.
	same := dataset.New().MustAddNumeric("v", normalData(2000, 100, 10, 2))
	if v := p.Violation(same); v > 0.05 {
		t.Errorf("same-distribution violation = %g", v)
	}
	// Shifted distribution violates strongly.
	shifted := dataset.New().MustAddNumeric("v", normalData(2000, 160, 10, 3))
	if v := p.Violation(shifted); v < 0.5 {
		t.Errorf("shifted violation = %g, want large", v)
	}
	// Rescaled distribution also violates.
	scaled := dataset.New().MustAddNumeric("v", normalData(2000, 100, 40, 4))
	if v := p.Violation(scaled); v < 0.1 {
		t.Errorf("rescaled violation = %g, want > 0.1", v)
	}
}

func TestDistributionSameParams(t *testing.T) {
	ref := dataset.New().MustAddNumeric("v", normalData(500, 0, 1, 5))
	a := DiscoverDistribution(ref, "v")
	b := DiscoverDistribution(ref, "v")
	if !a.SameParams(b) {
		t.Error("identical discoveries should match")
	}
	other := DiscoverDistribution(dataset.New().MustAddNumeric("v", normalData(500, 5, 1, 6)), "v")
	if a.SameParams(other) {
		t.Error("different distributions should not match")
	}
	if a.SameParams(&Missing{Attr: "v"}) {
		t.Error("cross-type SameParams should be false")
	}
}

func TestDistributionMapThroughQuantiles(t *testing.T) {
	p := &Distribution{Attr: "v", Quantiles: []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}
	src := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // source is 10× smaller
	if got := p.MapThroughQuantiles(src, 5); got != 50 {
		t.Errorf("median maps to %g, want 50", got)
	}
	if got := p.MapThroughQuantiles(src, 0); got != 0 {
		t.Errorf("min maps to %g", got)
	}
	if got := p.MapThroughQuantiles(src, 99); got != 100 {
		t.Errorf("above-max maps to %g, want clamp to 100", got)
	}
	if got := p.MapThroughQuantiles(src, 2.5); got != 25 {
		t.Errorf("interpolation = %g, want 25", got)
	}
	// Degenerate grids pass values through.
	if got := p.MapThroughQuantiles(nil, 7); got != 7 {
		t.Errorf("nil grid = %g", got)
	}
}

func TestFuncDepG3(t *testing.T) {
	// zip determines city except one violation out of five rows.
	d := dataset.New().
		MustAddCategorical("zip", []string{"01004", "01004", "01004", "94107", "94107"}).
		MustAddCategorical("city", []string{"amherst", "amherst", "OOPS", "sf", "sf"})
	p := &FuncDep{Det: "zip", Dep: "city"}
	if g3 := p.G3(d); math.Abs(g3-0.2) > 1e-9 {
		t.Errorf("g3 = %g, want 0.2", g3)
	}
	p.Epsilon = 0
	if v := p.Violation(d); math.Abs(v-0.2) > 1e-9 {
		t.Errorf("violation = %g", v)
	}
	p.Epsilon = 0.2
	if v := p.Violation(d); v > 1e-9 {
		t.Errorf("violation at epsilon = %g, want 0", v)
	}
	maj := p.MajorityValue(d)
	if maj["01004"] != "amherst" || maj["94107"] != "sf" {
		t.Errorf("majority = %v", maj)
	}
}

func TestFuncDepNullsAndKinds(t *testing.T) {
	d := dataset.New()
	if err := d.AddCategoricalColumn("a", []string{"x", "x", ""}, []bool{false, false, true}); err != nil {
		t.Fatal(err)
	}
	d.MustAddCategorical("b", []string{"1", "1", "2"})
	p := &FuncDep{Det: "a", Dep: "b"}
	if g3 := p.G3(d); g3 != 0 {
		t.Errorf("g3 with NULL det = %g (NULL rows skipped)", g3)
	}
	num := dataset.New().MustAddNumeric("n", []float64{1}).MustAddCategorical("c", []string{"x"})
	if (&FuncDep{Det: "n", Dep: "c"}).G3(num) != 0 {
		t.Error("numeric determinant should yield 0")
	}
}

func TestDiscoverExtendedProfiles(t *testing.T) {
	n := 300
	zip := make([]string, n)
	city := make([]string, n)
	for i := range zip {
		if i%2 == 0 {
			zip[i], city[i] = "a", "x"
		} else {
			zip[i], city[i] = "b", "y"
		}
	}
	d := dataset.New().
		MustAddNumeric("v", normalData(n, 10, 2, 7)).
		MustAddCategorical("zip", zip).
		MustAddCategorical("city", city)
	opts := Options{}
	base := Discover(d, opts)
	opts.Classes = map[string]bool{"distribution": true, "fd": true}
	extended := Discover(d, opts)
	var hasDist, hasFD bool
	for _, p := range extended {
		switch p.Type() {
		case "distribution":
			hasDist = true
		case "fd":
			hasFD = true
		}
	}
	if !hasDist || !hasFD {
		t.Errorf("extended discovery missing classes: dist=%v fd=%v", hasDist, hasFD)
	}
	if len(extended) <= len(base) {
		t.Error("extended discovery should add profiles")
	}
	// Extended profiles satisfy their own dataset.
	for _, p := range extended {
		if v := p.Violation(d); v > 1e-9 {
			t.Errorf("%s violates its own dataset: %g", p, v)
		}
	}
	// Classes exclusions suppress them again.
	opts.Classes = map[string]bool{"distribution": false, "fd": false}
	suppressed := Discover(d, opts)
	if len(suppressed) != len(base) {
		t.Errorf("Classes exclusions ineffective: %d vs %d", len(suppressed), len(base))
	}
}

func TestDiscoverFDSkipsWeakDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 400
	a := make([]string, n)
	b := make([]string, n)
	for i := range a {
		a[i] = string(rune('a' + rng.Intn(3)))
		b[i] = string(rune('x' + rng.Intn(3))) // independent of a
	}
	d := dataset.New().MustAddCategorical("a", a).MustAddCategorical("b", b)
	opts := Options{}
	opts.Classes = map[string]bool{"fd": true}
	for _, p := range Discover(d, opts) {
		if p.Type() == "fd" {
			t.Errorf("independent pair produced FD profile %s", p)
		}
	}
}

func TestUniqueProfile(t *testing.T) {
	d := dataset.New().MustAddCategorical("id", []string{"a", "b", "c", "b", "a"})
	p := &Unique{Attr: "id", Theta: 0}
	if frac := p.DuplicateFraction(d); math.Abs(frac-0.4) > 1e-9 {
		t.Errorf("duplicate fraction = %g, want 0.4", frac)
	}
	if v := p.Violation(d); math.Abs(v-0.4) > 1e-9 {
		t.Errorf("violation = %g", v)
	}
	clean := dataset.New().MustAddCategorical("id", []string{"a", "b", "c"})
	if p.Violation(clean) != 0 {
		t.Error("unique column should not violate")
	}
	// Numeric keys work too; NULLs are skipped.
	n := dataset.New()
	if err := n.AddNumericColumn("k", []float64{1, 2, 1, 0}, []bool{false, false, false, true}); err != nil {
		t.Fatal(err)
	}
	pn := &Unique{Attr: "k", Theta: 0}
	if frac := pn.DuplicateFraction(n); math.Abs(frac-0.25) > 1e-9 {
		t.Errorf("numeric duplicate fraction = %g, want 0.25", frac)
	}
}

func TestDiscoverUnique(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("id", []string{"a", "b", "c", "d"}).
		MustAddCategorical("flag", []string{"x", "x", "x", "y"})
	opts := Options{}
	opts.Classes = map[string]bool{"unique": true}
	found := map[string]bool{}
	for _, p := range Discover(d, opts) {
		if p.Type() == "unique" {
			found[p.Attributes()[0]] = true
		}
	}
	if !found["id"] {
		t.Error("near-key attribute should get a Unique profile")
	}
	if found["flag"] {
		t.Error("repetitive attribute should not get a Unique profile")
	}
}

func TestInclusionProfile(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("ship_zip", []string{"01004", "94107", "01004"}).
		MustAddCategorical("known_zip", []string{"01004", "94107", "10001"})
	p := &Inclusion{Child: "ship_zip", Parent: "known_zip"}
	if v := p.Violation(d); v != 0 {
		t.Errorf("satisfied IND violation = %g", v)
	}
	bad := dataset.New().
		MustAddCategorical("ship_zip", []string{"01004", "99999", "88888"}).
		MustAddCategorical("known_zip", []string{"01004", "94107", "10001"})
	if v := p.Violation(bad); math.Abs(v-2.0/3) > 1e-9 {
		t.Errorf("dangling IND violation = %g, want 2/3", v)
	}
	if !p.SameParams(&Inclusion{Child: "ship_zip", Parent: "known_zip"}) {
		t.Error("SameParams")
	}
	if p.SameParams(&Inclusion{Child: "known_zip", Parent: "ship_zip"}) {
		t.Error("direction matters")
	}
}

func TestDiscoverInclusions(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("child", []string{"a", "b", "a"}).
		MustAddCategorical("parent", []string{"a", "b", "c"}).
		MustAddCategorical("other", []string{"x", "y", "z"})
	opts := Options{}
	opts.Classes = map[string]bool{"inclusion": true}
	var found []string
	for _, p := range Discover(d, opts) {
		if p.Type() == "inclusion" {
			found = append(found, p.Key())
		}
	}
	want := "inclusion:child⊆parent"
	hasWant := false
	for _, k := range found {
		if k == want {
			hasWant = true
		}
		if k == "inclusion:parent⊆child" || k == "inclusion:other⊆child" {
			t.Errorf("spurious IND discovered: %s", k)
		}
	}
	if !hasWant {
		t.Errorf("IND %s not discovered; got %v", want, found)
	}
}

func TestFrequencyProfile(t *testing.T) {
	// Weekly feed: timestamps every 7 units.
	weekly := make([]float64, 50)
	for i := range weekly {
		weekly[i] = float64(i) * 7
	}
	d := dataset.New().MustAddNumeric("ts", weekly)
	p := DiscoverFrequency(d, "ts")
	if p == nil {
		t.Fatal("discovery failed")
	}
	if math.Abs(p.MedianGap-7) > 1e-9 {
		t.Fatalf("median gap = %g, want 7", p.MedianGap)
	}
	if v := p.Violation(d); v != 0 {
		t.Errorf("self-violation = %g", v)
	}
	// Daily feed: the intro's cadence change.
	daily := make([]float64, 50)
	for i := range daily {
		daily[i] = float64(i)
	}
	dd := dataset.New().MustAddNumeric("ts", daily)
	if v := p.Violation(dd); v < 0.9 {
		t.Errorf("7x cadence change violation = %g, want near 1", v)
	}
	// Mild jitter is not a violation to speak of.
	jit := make([]float64, 50)
	for i := range jit {
		jit[i] = float64(i)*7 + float64(i%3)*0.1
	}
	dj := dataset.New().MustAddNumeric("ts", jit)
	if v := p.Violation(dj); v > 0.05 {
		t.Errorf("jitter violation = %g", v)
	}
	// Degenerate: too few values.
	small := dataset.New().MustAddNumeric("ts", []float64{1, 2})
	if DiscoverFrequency(small, "ts") != nil {
		t.Error("two values should not learn a cadence")
	}
	if p.Violation(small) != 0 {
		t.Error("unmeasurable cadence should not violate")
	}
}

func TestDiscoverFrequencyFlag(t *testing.T) {
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = float64(i) * 7
	}
	d := dataset.New().MustAddNumeric("ts", vals)
	opts := Options{}
	opts.Classes = map[string]bool{"frequency": true}
	found := false
	for _, p := range Discover(d, opts) {
		if p.Type() == "frequency" {
			found = true
		}
	}
	if !found {
		t.Error("frequency class discovered nothing")
	}
}
