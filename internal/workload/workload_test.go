package workload

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/profile"
)

func TestPeopleTablesMatchPaper(t *testing.T) {
	fail := Peoplefail()
	if fail.NumRows() != 10 || fail.NumCols() != 7 {
		t.Fatalf("Peoplefail shape %dx%d, want 10x7", fail.NumRows(), fail.NumCols())
	}
	pass := Peoplepass()
	if pass.NumRows() != 9 {
		t.Fatalf("Peoplepass rows = %d, want 9", pass.NumRows())
	}
	// Example 14: t3's age 60 is the only 1.5σ outlier in Peoplefail.
	out := &profile.Outlier{Attr: "age", K: 1.5, Theta: 0.1}
	if frac := out.OutlierFraction(fail); frac != 0.1 {
		t.Errorf("outlier fraction = %g, want 0.1 (only t3)", frac)
	}
	// Missing zip_code: 2/10 in fail (t6, t10), 1/9 in pass (t4).
	if fail.NullCount("zip_code") != 2 || pass.NullCount("zip_code") != 1 {
		t.Errorf("zip NULLs = %d/%d, want 2/1", fail.NullCount("zip_code"), pass.NullCount("zip_code"))
	}
	// Figure 5: the discriminative profiles include the zip Missing profile.
	disc := profile.Discriminative(pass, fail, profile.Options{}, 1e-9)
	foundMissing := false
	for _, p := range disc {
		if p.Key() == "missing:zip_code" {
			foundMissing = true
		}
	}
	if !foundMissing {
		t.Error("⟨Missing, zip_code⟩ should discriminate the paper's tables")
	}
}

func TestSentimentScenario(t *testing.T) {
	s := NewSentimentScenario(600, 1)
	passScore := s.System.MalfunctionScore(s.Pass)
	failScore := s.System.MalfunctionScore(s.Fail)
	if passScore > s.Tau {
		t.Fatalf("pass score %g exceeds tau %g", passScore, s.Tau)
	}
	if failScore != 1 {
		t.Fatalf("fail score = %g, want 1.0 (no {0,4} label ever matches)", failScore)
	}
	e := &core.Explainer{System: s.System, Tau: s.Tau, Options: &s.Options, Seed: 1}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("GRD failed: %v", err)
	}
	if len(res.Explanation) != 1 || res.Explanation[0].Profile.Key() != "domain:target" {
		t.Errorf("explanation = %s, want the target Domain profile", res.ExplanationString())
	}
	if res.Interventions > 5 {
		t.Errorf("GRD interventions = %d, want ≤ 5 as in the paper", res.Interventions)
	}
}

func TestSentimentGroupTest(t *testing.T) {
	s := NewSentimentScenario(600, 1)
	e := &core.Explainer{System: s.System, Tau: s.Tau, Options: &s.Options, Seed: 1}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("GT failed: %v", err)
	}
	if len(res.Explanation) != 1 || res.Explanation[0].Profile.Key() != "domain:target" {
		t.Errorf("GT explanation = %s", res.ExplanationString())
	}
}

func TestIncomeScenario(t *testing.T) {
	s := NewIncomeScenario(1200, 2)
	passScore := s.System.MalfunctionScore(s.Pass)
	failScore := s.System.MalfunctionScore(s.Fail)
	if passScore > s.Tau {
		t.Fatalf("pass score %g exceeds tau %g", passScore, s.Tau)
	}
	if failScore < 0.5 {
		t.Fatalf("fail score = %g, want strong disparity", failScore)
	}
	e := &core.Explainer{System: s.System, Tau: s.Tau, Options: &s.Options, Seed: 2}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("GRD failed: %v", err)
	}
	// The fix must involve the target attribute (the paper: intervening on
	// target breaks its dependence on all other attributes).
	involvesTarget := false
	for _, p := range res.Explanation {
		for _, a := range p.Attributes() {
			if a == "target" {
				involvesTarget = true
			}
		}
	}
	if !involvesTarget {
		t.Errorf("explanation %s does not involve target", res.ExplanationString())
	}
	if res.Interventions > 8 {
		t.Errorf("GRD interventions = %d, want small", res.Interventions)
	}
	if res.FinalScore > s.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}

func TestCardioScenario(t *testing.T) {
	s := NewCardioScenario(1200, 4)
	passScore := s.System.MalfunctionScore(s.Pass)
	failScore := s.System.MalfunctionScore(s.Fail)
	if passScore > s.Tau {
		t.Fatalf("pass score %g exceeds tau %g", passScore, s.Tau)
	}
	if failScore < 0.7 {
		t.Fatalf("fail score = %g, want recall collapse (paper: 0.71)", failScore)
	}
	e := &core.Explainer{System: s.System, Tau: s.Tau, Options: &s.Options, Seed: 4}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("GRD failed: %v", err)
	}
	if len(res.Explanation) != 1 || !strings.HasPrefix(res.Explanation[0].Profile.Key(), "domain:height") {
		t.Errorf("explanation = %s, want the height Domain profile", res.ExplanationString())
	}
	if res.FinalScore > s.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}

// refCardioScore is the Cardio score as the case study computed it from
// the whole encoded matrix: 1 − the recall of class 1, with recall 1 when
// no row is class 1, and 1 when no row is labelled.
func refCardioScore(s *cardioSystem, d *dataset.Dataset) float64 {
	X, y, _, err := s.enc.Encode(d)
	if err != nil || len(X) == 0 {
		return 1
	}
	pred := ml.PredictAll(s.model, X)
	tp, fn := 0, 0
	for i := range y {
		if y[i] != 1 {
			continue
		}
		if pred[i] == 1 {
			tp++
		} else {
			fn++
		}
	}
	recall := 1.0
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return 1 - recall
}

func TestCardioScoreMatchesReference(t *testing.T) {
	sc := NewCardioScenario(2000, 4)
	sys := sc.System.(*cardioSystem)
	n := sc.Fail.NumRows()
	// with returns the failing dataset with column attr dropped and
	// whatever add adds in its place.
	with := func(attr string, add func(d *dataset.Dataset) error) *dataset.Dataset {
		d := dataset.New()
		for _, c := range sc.Fail.Columns() {
			if c.Name == attr {
				continue
			}
			null, nums, strs := make([]bool, n), make([]float64, n), make([]string, n)
			for r := range null {
				null[r] = c.NullAt(r)
				if c.Kind == dataset.Numeric {
					nums[r] = c.NumAt(r)
				} else {
					strs[r] = c.StrAt(r)
				}
			}
			var err error
			if c.Kind == dataset.Numeric {
				err = d.AddNumericColumn(c.Name, nums, null)
			} else {
				err = d.AddCategoricalColumn(c.Name, strs, null)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := add(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	heightCM := make([]float64, n)
	for r := range heightCM {
		heightCM[r] = sc.Fail.Column("height").NumAt(r) * 2.54
	}
	allNull, everyThird := make([]bool, n), make([]bool, n)
	negative, asText := make([]string, n), make([]string, n)
	for r := range allNull {
		allNull[r], everyThird[r] = true, r%3 == 0
		negative[r], asText[r] = "0", "170"
	}
	cases := map[string]*dataset.Dataset{
		"pass": sc.Pass,
		"fail": sc.Fail,
		"fail, height in cm": with("height", func(d *dataset.Dataset) error {
			return d.AddNumericColumn("height", heightCM, nil)
		}),
		"no labelled row": with("target", func(d *dataset.Dataset) error {
			return d.AddCategoricalColumn("target", negative, allNull)
		}),
		"no disease row": with("target", func(d *dataset.Dataset) error {
			return d.AddCategoricalColumn("target", negative, everyThird)
		}),
		"height changed kind": with("height", func(d *dataset.Dataset) error {
			return d.AddCategoricalColumn("height", asText, nil)
		}),
		"no height": with("height", func(*dataset.Dataset) error { return nil }),
		"no rows":   sc.Fail.Filter(func(int) bool { return false }),
	}
	for name, d := range cases {
		got, want := sys.MalfunctionScore(d), refCardioScore(sys, d)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: score %v, want %v", name, got, want)
		}
	}
}

// TestCardioScoreAllocations bounds one Cardio oracle call on 10k rows at
// one feature vector and a small constant: no matrix, no prediction list.
func TestCardioScoreAllocations(t *testing.T) {
	sc := NewCardioScenario(10_000, 4)
	X, _, _, err := sc.System.(*cardioSystem).enc.Encode(sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	// TotalAlloc counts every goroutine's allocations, and a goroutine an
	// earlier test left exiting may still allocate: take the least of
	// several calls.
	got := uint64(math.MaxUint64)
	for k := 0; k < 5; k++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		benchScore = sc.System.MalfunctionScore(sc.Fail)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	vector := uint64(len(X[0])) * 8
	if limit := vector + 256; got > limit {
		t.Errorf("Cardio score of %d rows allocated %d bytes, want at most %d (a %d-byte feature vector)",
			sc.Fail.NumRows(), got, limit, vector)
	}
}

func TestBiasScenario(t *testing.T) {
	s := NewBiasScenario(600, 4)
	passScore := s.System.MalfunctionScore(s.Pass)
	failScore := s.System.MalfunctionScore(s.Fail)
	if passScore > s.Tau {
		t.Fatalf("pass score %g exceeds tau %g", passScore, s.Tau)
	}
	if failScore < 0.5 {
		t.Fatalf("fail score = %g, want strong bias", failScore)
	}
	e := &core.Explainer{System: s.System, Tau: s.Tau, Options: &s.Options, Seed: 4}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("GRD failed: %v", err)
	}
	if len(res.Explanation) == 0 || res.FinalScore > s.Tau {
		t.Errorf("bias scenario unresolved: %s score %g", res.ExplanationString(), res.FinalScore)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a := NewSentimentScenario(200, 9)
	b := NewSentimentScenario(200, 9)
	if !a.Pass.Equal(b.Pass) || !a.Fail.Equal(b.Fail) {
		t.Error("sentiment generation not deterministic")
	}
	c := NewIncomeScenario(200, 9)
	d := NewIncomeScenario(200, 9)
	if !c.Pass.Equal(d.Pass) || !c.Fail.Equal(d.Fail) {
		t.Error("income generation not deterministic")
	}
}

func TestEZGoScenario(t *testing.T) {
	s := NewEZGoScenario(1000, 1)
	if got := s.System.MalfunctionScore(s.Pass); got > s.Tau {
		t.Fatalf("pass overrun = %g", got)
	}
	if got := s.System.MalfunctionScore(s.Fail); got < 0.8 {
		t.Fatalf("fail overrun = %g, want near 1", got)
	}
	e := &core.Explainer{System: s.System, Tau: s.Tau, Options: &s.Options, Seed: 1}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("GRD failed: %v", err)
	}
	// The fix must be a Selectivity profile touching the hard-case
	// attributes (Example 2's skew).
	found := false
	for _, p := range res.Explanation {
		if p.Profile.Type() != "selectivity" {
			continue
		}
		for _, a := range p.Attributes() {
			if a == "plate_color" || a == "illumination" || a == "toll_pass" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("explanation %s does not expose the skew", res.ExplanationString())
	}
	if res.FinalScore > s.Tau {
		t.Errorf("final overrun = %g", res.FinalScore)
	}
	// The repair under-samples: the repaired batch is smaller.
	if res.Transformed.NumRows() >= s.Fail.NumRows() {
		t.Error("repair should reroute (drop) hard cases")
	}
}
