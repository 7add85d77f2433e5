package profile

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// peopleLike builds a small dataset resembling the paper's running example.
func peopleLike() *dataset.Dataset {
	d := dataset.New()
	d.MustAddCategorical("gender", []string{"F", "M", "M", "M", "F", "F", "M", "M", "M", "M"})
	d.MustAddNumeric("age", []float64{45, 40, 60, 22, 41, 32, 25, 35, 25, 20})
	d.MustAddCategorical("race", []string{"A", "A", "A", "W", "W", "W", "W", "W", "W", "W"})
	zip := []string{"01004", "01004", "01005", "01009", "01009", "", "01101", "01101", "01101", ""}
	null := make([]bool, len(zip))
	for i, z := range zip {
		null[i] = z == ""
	}
	if err := d.AddTextColumn("zip", zip, null); err != nil {
		panic(err)
	}
	d.MustAddCategorical("high", []string{"no", "no", "no", "yes", "yes", "no", "yes", "yes", "yes", "yes"})
	return d
}

func countType(ps []Profile, typ string) int {
	n := 0
	for _, p := range ps {
		if p.Type() == typ {
			n++
		}
	}
	return n
}

func TestDiscoverBasics(t *testing.T) {
	d := peopleLike()
	ps := Discover(d, Options{})
	if len(ps) == 0 {
		t.Fatal("no profiles discovered")
	}
	// One Missing per column.
	if got := countType(ps, "missing"); got != 5 {
		t.Errorf("missing profiles = %d, want 5", got)
	}
	// One Outlier for the single numeric column.
	if got := countType(ps, "outlier"); got != 1 {
		t.Errorf("outlier profiles = %d, want 1", got)
	}
	// Domains: gender, age, race, zip (text), high = 5.
	if got := countType(ps, "domain"); got != 5 {
		t.Errorf("domain profiles = %d, want 5", got)
	}
	// Indep: chi-squared for the 3 categorical pairs (gender,race,high).
	if got := countType(ps, "indep"); got != 3 {
		t.Errorf("indep profiles = %d, want 3", got)
	}
	// All discovered profiles must have zero violation on their own dataset
	// (they are learned as minimal satisfied profiles).
	for _, p := range ps {
		if v := p.Violation(d); v > 1e-9 {
			t.Errorf("%s violates its own dataset: %g", p, v)
		}
	}
	// Deterministic ordering.
	ps2 := Discover(d, Options{})
	for i := range ps {
		if ps[i].Key() != ps2[i].Key() {
			t.Fatal("discovery order not deterministic")
		}
	}
}

func TestDiscoverSelectivityEnumeration(t *testing.T) {
	d := peopleLike()
	ps := Discover(d, Options{})
	sel := countType(ps, "selectivity")
	// Singles: gender(2) + race(2) + high(2) = 6.
	// Pairs: gender×race 4 + gender×high 4 + race×high 4 = 12.
	if sel != 18 {
		t.Errorf("selectivity profiles = %d, want 18", sel)
	}
	if got := len(selectivityPredicates(d, 1, maxSelectivityProfiles)); got != 6 {
		t.Errorf("singles only = %d, want 6", got)
	}
	if got := len(selectivityPredicates(d, 1, 3)); got != 3 {
		t.Errorf("capped = %d, want 3", got)
	}
}

func TestDiscoverClassesExclude(t *testing.T) {
	d := peopleLike()
	opts := Options{}
	opts.Classes = map[string]bool{"selectivity": false, "indep": false, "outlier": false}
	ps := Discover(d, opts)
	if countType(ps, "selectivity")+countType(ps, "indep")+countType(ps, "outlier") != 0 {
		t.Error("excluded classes still discovered")
	}
	if countType(ps, "domain") == 0 || countType(ps, "missing") == 0 {
		t.Error("enabled classes missing")
	}
}

func TestDiscoverCausal(t *testing.T) {
	d := peopleLike()
	opts := Options{}
	opts.Classes = map[string]bool{"indep-causal": true}
	ps := Discover(d, opts)
	causalCount := 0
	for _, p := range ps {
		if strings.HasPrefix(p.Key(), "indep-causal:") {
			causalCount++
		}
	}
	// Mixed pairs: age×gender, age×race, age×high = 3 (zip is text).
	if causalCount != 3 {
		t.Errorf("causal profiles = %d, want 3", causalCount)
	}
}

func TestDiscriminative(t *testing.T) {
	pass := peopleLike()
	fail := pass.Clone()
	// Inject a domain shift: an unseen gender value in the failing dataset.
	fail.SetStr("gender", 0, "X")
	fail.SetStr("gender", 1, "X")

	disc := Discriminative(pass, fail, Options{}, 1e-9)
	foundGenderDomain := false
	for _, p := range disc {
		if p.Key() == "domain:gender" {
			foundGenderDomain = true
		}
		// Every discriminative profile satisfies Definition 10.
		if p.Violation(pass) > 1e-9 {
			t.Errorf("%s violates the passing dataset", p)
		}
		if p.Violation(fail) <= 1e-9 {
			t.Errorf("%s does not violate the failing dataset", p)
		}
	}
	if !foundGenderDomain {
		t.Error("gender domain shift not detected as discriminative")
	}

	// Identical datasets → no discriminative profiles.
	if got := Discriminative(pass, pass.Clone(), Options{}, 1e-9); len(got) != 0 {
		t.Errorf("identical datasets produced %d discriminative profiles", len(got))
	}
}

func TestDiscoverConditional(t *testing.T) {
	d := peopleLike()
	ps := DiscoverConditional(d, Options{})
	if len(ps) == 0 {
		t.Fatal("no conditional profiles discovered")
	}
	for _, p := range ps {
		if v := p.Violation(d); v > 1e-9 {
			t.Errorf("%s violates its own dataset: %g", p, v)
		}
		if p.Type() != "conditional" {
			t.Errorf("unexpected type %q", p.Type())
		}
	}
}

func TestDiscoverEmptyDataset(t *testing.T) {
	ps := Discover(dataset.New(), Options{})
	if len(ps) != 0 {
		t.Errorf("empty dataset produced %d profiles", len(ps))
	}
}

func TestDiscoverConditionalFlag(t *testing.T) {
	d := peopleLike()
	opts := Options{}
	opts.Classes = map[string]bool{"conditional": true}
	ps := Discover(d, opts)
	conditional := 0
	for _, p := range ps {
		if p.Type() == "conditional" {
			conditional++
			if v := p.Violation(d); v > 1e-9 {
				t.Errorf("%s violates its own dataset: %g", p, v)
			}
		}
	}
	if conditional == 0 {
		t.Fatal("conditional class discovered nothing")
	}
	// Conditional discovery composes with the discriminative pipeline:
	// inject a conditional-only shift (out-of-range ages for one race) that
	// the unconditional age domain cannot see... (both datasets share the
	// global range) and assert a conditional profile flags it.
	pass := peopleLike()
	fail := pass.Clone()
	// Give race=A rows ages outside the race=A conditional range but inside
	// the global range.
	for i := 0; i < fail.NumRows(); i++ {
		if fail.Str("race", i) == "A" {
			fail.SetNum("age", i, 21) // global range is [20,60]
		}
	}
	disc := Discriminative(pass, fail, opts, 1e-9)
	foundConditional := false
	for _, p := range disc {
		if p.Type() == "conditional" {
			foundConditional = true
		}
	}
	if !foundConditional {
		t.Error("conditional-only shift not caught by conditional profiles")
	}
}
