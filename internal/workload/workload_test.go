package workload

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
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
	disc := profile.Discriminative(pass, fail, profile.DefaultOptions(), 1e-9)
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
