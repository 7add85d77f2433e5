package profile

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
)

// codecGolden pins the canonical wire form of every built-in class: the
// exact bytes EncodeProfile emits for a representative profile. Golden
// strings are load-bearing — artifact bytes are the compatibility surface,
// so an unintentional wire change must fail here, not in production diffs.
var codecGolden = []struct {
	class   string
	profile Profile
	golden  string
}{
	{
		class:   "domain",
		profile: &DomainCategorical{Attr: "gender", Values: map[string]bool{"M": true, "F": true}},
		golden:  `{"variant":"categorical","attr":"gender","values":["F","M"]}`,
	},
	{
		class:   "domain",
		profile: &DomainNumeric{Attr: "age", Lo: 20, Hi: 60},
		golden:  `{"variant":"numeric","attr":"age","lo":20,"hi":60}`,
	},
	{
		class:   "domain",
		profile: &DomainText{Attr: "zip", Pattern: pattern.Learn([]string{"01004", "01005", "01101"})},
		golden:  `{"variant":"text","attr":"zip","pattern":{"structured":true,"min_len":5,"max_len":5,"runs":[{"class":2,"min":5,"max":5}],"classes":[2]}}`,
	},
	{
		class:   "domain",
		profile: &DomainText{Attr: "phone", Pattern: pattern.Learn([]string{"555-0100", "555-0101", "555-0102"})},
		golden:  `{"variant":"text","attr":"phone","pattern":{"structured":true,"min_len":8,"max_len":8,"runs":[{"class":2,"min":3,"max":3,"literal":"5"},{"class":4,"min":1,"max":1,"literal":"-"},{"class":2,"min":4,"max":4}],"classes":[2,4]}}`,
	},
	{
		class:   "missing",
		profile: &Missing{Attr: "zip", Theta: 0.2},
		golden:  `{"attr":"zip","theta":0.2}`,
	},
	{
		class:   "outlier",
		profile: &Outlier{Attr: "age", K: 1.5, Theta: 0.05},
		golden:  `{"attr":"age","k":1.5,"theta":0.05}`,
	},
	{
		class:   "selectivity",
		profile: &Selectivity{Pred: dataset.And(dataset.EqStr("gender", "F")), Theta: 0.3},
		golden:  `{"pred":[{"attr":"gender","op":"=","str":"F"}],"theta":0.3}`,
	},
	{
		class: "selectivity",
		profile: &Selectivity{Pred: dataset.And(dataset.EqStr("race", "W")), Theta: 0.7,
			Fit: &Bound{SampleRows: 100, TotalRows: 1000, Seed: 7, Epsilon: 0.01, Confidence: 0.95, Method: "hoeffding"}},
		golden: `{"pred":[{"attr":"race","op":"=","str":"W"}],"theta":0.7,"fit":{"sample_rows":100,"total_rows":1000,"seed":7,"epsilon":0.01,"confidence":0.95,"method":"hoeffding"}}`,
	},
	{
		class:   "indep",
		profile: &IndepChi{AttrA: "gender", AttrB: "race", Alpha: 2.5},
		golden:  `{"variant":"chi","attr_a":"gender","attr_b":"race","alpha":2.5}`,
	},
	{
		class:   "indep",
		profile: &IndepPearson{AttrA: "age", AttrB: "income", Alpha: 0.12},
		golden:  `{"variant":"pearson","attr_a":"age","attr_b":"income","alpha":0.12}`,
	},
	{
		class:   "indep-causal",
		profile: &IndepCausal{AttrA: "age", AttrB: "high", Alpha: 0.4},
		golden:  `{"attr_a":"age","attr_b":"high","alpha":0.4}`,
	},
	{
		class:   "distribution",
		profile: &Distribution{Attr: "age", Quantiles: []float64{20, 25, 32, 41, 60}, Delta: 0.1},
		golden:  `{"attr":"age","quantiles":[20,25,32,41,60],"delta":0.1}`,
	},
	{
		class:   "frequency",
		profile: &Frequency{Attr: "ts", MedianGap: 2},
		golden:  `{"attr":"ts","median_gap":2}`,
	},
	{
		class:   "fd",
		profile: &FuncDep{Det: "zip", Dep: "race", Epsilon: 0.05},
		golden:  `{"det":"zip","dep":"race","epsilon":0.05}`,
	},
	{
		class:   "unique",
		profile: &Unique{Attr: "id", Theta: 0.95},
		golden:  `{"attr":"id","theta":0.95}`,
	},
	{
		class:   "inclusion",
		profile: &Inclusion{Child: "zip", Parent: "zip_master"},
		golden:  `{"child":"zip","parent":"zip_master"}`,
	},
	{
		class: "conditional",
		profile: &Conditional{Cond: dataset.And(dataset.EqStr("race", "A")),
			Inner: &Missing{Attr: "zip", Theta: 0.5}},
		golden: `{"cond":[{"attr":"race","op":"=","str":"A"}],"class":"missing","inner":{"attr":"zip","theta":0.5}}`,
	},
}

// TestCodecGoldenRoundTrip checks, for one representative profile per class
// (and per variant of multi-type classes): EncodeProfile names the owning
// class, the wire bytes match the golden exactly, and decoding yields a
// profile with the same Key whose SameParams holds in both directions.
func TestCodecGoldenRoundTrip(t *testing.T) {
	for _, tc := range codecGolden {
		t.Run(tc.class+"/"+tc.profile.Key(), func(t *testing.T) {
			class, data, err := EncodeProfile(tc.profile)
			if err != nil {
				t.Fatalf("EncodeProfile: %v", err)
			}
			if class != tc.class {
				t.Errorf("owning class = %q, want %q", class, tc.class)
			}
			if string(data) != tc.golden {
				t.Errorf("wire bytes diverge from golden\n got: %s\nwant: %s", data, tc.golden)
			}
			back, err := DecodeProfile(class, data)
			if err != nil {
				t.Fatalf("DecodeProfile: %v", err)
			}
			if back.Key() != tc.profile.Key() {
				t.Errorf("round-trip Key = %q, want %q", back.Key(), tc.profile.Key())
			}
			if !back.SameParams(tc.profile) || !tc.profile.SameParams(back) {
				t.Errorf("round-trip loses parameters: %s vs %s", back, tc.profile)
			}
			// Re-encoding the decoded profile must be byte-stable.
			_, again, err := EncodeProfile(back)
			if err != nil {
				t.Fatalf("re-encoding round-tripped profile: %v", err)
			}
			if string(again) != tc.golden {
				t.Errorf("second-generation bytes diverge\n got: %s\nwant: %s", again, tc.golden)
			}
		})
	}
}

// TestCodecClaimOnlyOwn checks that EncodeProfile hands a profile only to
// the class its Type() names: a profile naming no registered class, or
// naming a class whose codec does not encode it, is rejected.
func TestCodecClaimOnlyOwn(t *testing.T) {
	if _, _, err := EncodeProfile(&fakeProfile{}); err == nil {
		t.Error("EncodeProfile accepted a profile no class owns")
	} else if !strings.Contains(err.Error(), "no registered class") {
		t.Errorf("unowned-profile error unhelpful: %v", err)
	}
	if _, _, err := EncodeProfile(misnamedProfile{}); err == nil {
		t.Error("EncodeProfile accepted a profile its named class does not encode")
	} else if !strings.Contains(err.Error(), `"frequency"`) {
		t.Errorf("misnamed-profile error does not name the class: %v", err)
	}
	if _, err := DecodeProfile("no-such-class", []byte("{}")); err == nil {
		t.Error("DecodeProfile accepted an unregistered class")
	}
}

// fakeProfile belongs to no registered class.
type fakeProfile struct{}

func (fakeProfile) Type() string                         { return "fake" }
func (fakeProfile) Attributes() []string                 { return nil }
func (fakeProfile) Key() string                          { return "fake()" }
func (fakeProfile) String() string                       { return "fake" }
func (fakeProfile) Violation(d *dataset.Dataset) float64 { return 0 }
func (fakeProfile) SameParams(p Profile) bool            { return false }

// misnamedProfile names the frequency class but is not a Frequency.
type misnamedProfile struct{ fakeProfile }

func (misnamedProfile) Type() string { return "frequency" }

// TestDriftMagnitudes pins the per-class drift scales artifact diffs report.
func TestDriftMagnitudes(t *testing.T) {
	approx := func(t *testing.T, got, want float64) {
		t.Helper()
		if diff := got - want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("drift = %g, want %g", got, want)
		}
	}
	t.Run("same-params-is-zero", func(t *testing.T) {
		approx(t, DriftMagnitude("missing", &Missing{Attr: "a", Theta: 0.1}, &Missing{Attr: "a", Theta: 0.1}), 0)
	})
	t.Run("nil-is-one", func(t *testing.T) {
		approx(t, DriftMagnitude("missing", nil, &Missing{Attr: "a"}), 1)
	})
	t.Run("no-drifter-fallback-is-one", func(t *testing.T) {
		approx(t, DriftMagnitude("inclusion",
			&Inclusion{Child: "a", Parent: "b"}, &Inclusion{Child: "a", Parent: "c"}), 1)
	})
	t.Run("categorical-jaccard", func(t *testing.T) {
		old := &DomainCategorical{Attr: "g", Values: map[string]bool{"a": true, "b": true}}
		new := &DomainCategorical{Attr: "g", Values: map[string]bool{"b": true, "c": true}}
		approx(t, DriftMagnitude("domain", old, new), 1-1.0/3) // |∩|=1, |∪|=3
	})
	t.Run("numeric-bound-movement", func(t *testing.T) {
		old := &DomainNumeric{Attr: "x", Lo: 0, Hi: 10}
		new := &DomainNumeric{Attr: "x", Lo: 0, Hi: 20}
		approx(t, DriftMagnitude("domain", old, new), 10.0/40) // union span 20
	})
	t.Run("missing-theta-delta", func(t *testing.T) {
		approx(t, DriftMagnitude("missing", &Missing{Attr: "a", Theta: 0.1}, &Missing{Attr: "a", Theta: 0.35}), 0.25)
	})
	t.Run("outlier-different-k-is-one", func(t *testing.T) {
		approx(t, DriftMagnitude("outlier",
			&Outlier{Attr: "a", K: 1.5, Theta: 0.1}, &Outlier{Attr: "a", K: 3, Theta: 0.1}), 1)
	})
	t.Run("frequency-log-ratio", func(t *testing.T) {
		approx(t, DriftMagnitude("frequency",
			&Frequency{Attr: "ts", MedianGap: 1}, &Frequency{Attr: "ts", MedianGap: 2}), 0.5)
	})
	t.Run("distribution-normalized-decile-shift", func(t *testing.T) {
		old := &Distribution{Attr: "x", Quantiles: []float64{0, 5, 10}, Delta: 0.1}
		new := &Distribution{Attr: "x", Quantiles: []float64{2, 7, 12}, Delta: 0.1}
		approx(t, DriftMagnitude("distribution", old, new), 2.0/12) // mean |Δq|=2, span 12
	})
	t.Run("clamped-to-unit-interval", func(t *testing.T) {
		// A 16× cadence change would score 2 raw; the magnitude clamps to 1.
		approx(t, DriftMagnitude("frequency",
			&Frequency{Attr: "ts", MedianGap: 1}, &Frequency{Attr: "ts", MedianGap: 16}), 1)
	})
	t.Run("conditional-delegates-to-inner", func(t *testing.T) {
		cond := dataset.And(dataset.EqStr("seg", "a"))
		old := &Conditional{Cond: cond, Inner: &Missing{Attr: "x", Theta: 0.1}}
		new := &Conditional{Cond: cond, Inner: &Missing{Attr: "x", Theta: 0.3}}
		approx(t, DriftMagnitude("conditional", old, new), 0.2)
		other := &Conditional{Cond: dataset.And(dataset.EqStr("seg", "b")), Inner: &Missing{Attr: "x", Theta: 0.1}}
		approx(t, DriftMagnitude("conditional", old, other), 1)
	})
}

// TestCodecDiscoveredProfiles round-trips everything discovery actually
// produces on a realistic dataset — the property the golden table can't
// cover: arbitrary discovered parameter combinations survive the trip.
func TestCodecDiscoveredProfiles(t *testing.T) {
	d := peopleLike()
	opts := Options{}
	opts.Classes = map[string]bool{
		"indep-causal": true, "distribution": true, "frequency": true,
		"fd": true, "unique": true, "inclusion": true, "conditional": true,
	}
	ps := Discover(d, opts)
	if len(ps) == 0 {
		t.Fatal("no profiles discovered")
	}
	for _, p := range ps {
		class, data, err := EncodeProfile(p)
		if err != nil {
			t.Errorf("encoding discovered %s: %v", p.Key(), err)
			continue
		}
		back, err := DecodeProfile(class, data)
		if err != nil {
			t.Errorf("decoding discovered %s: %v", p.Key(), err)
			continue
		}
		if back.Key() != p.Key() || !back.SameParams(p) {
			t.Errorf("discovered %s does not survive the round trip: got %s", p, back)
		}
	}
}
