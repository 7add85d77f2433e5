package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// statusScenario builds a real-profile scenario: the failing dataset uses
// numeric-coded status values the system does not understand.
func statusScenario() (sys pipeline.System, pass, fail *dataset.Dataset) {
	sys = &pipeline.Func{SystemName: "status-consumer", Score: func(d *dataset.Dataset) float64 {
		c := d.Column("status")
		if c == nil || d.NumRows() == 0 {
			return 1
		}
		bad := 0
		for i := 0; i < d.NumRows(); i++ {
			if v := c.StrAt(i); v != "ok" && v != "error" {
				bad++
			}
		}
		return float64(bad) / float64(d.NumRows())
	}}
	mk := func(vals []string) *dataset.Dataset {
		n := len(vals)
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64(10 + i%7)
		}
		d := dataset.New()
		d.MustAddCategorical("status", vals)
		d.MustAddNumeric("latency", lat)
		return d
	}
	pass = mk([]string{"ok", "error", "ok", "ok", "error", "ok", "ok", "ok"})
	fail = mk([]string{"0", "1", "0", "0", "1", "0", "0", "0"})
	return sys, pass, fail
}

func TestDatasetLevelGroupTest(t *testing.T) {
	sys, pass, fail := statusScenario()
	e := &core.Explainer{System: sys, Tau: 0.1, Seed: 81}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), e.Candidates(pass, fail), fail)
	if err != nil {
		t.Fatalf("dataset-level GT failed: %v", err)
	}
	if !strings.Contains(res.ExplanationString(), "Domain, status") {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
	if res.FinalScore > e.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}

func TestDatasetLevelEnumerate(t *testing.T) {
	sys, pass, fail := statusScenario()
	e := &core.Explainer{System: sys, Tau: 0.1, Seed: 82}
	expls, err := e.EnumerateExplanationsPVTsContext(context.Background(), e.Candidates(pass, fail), fail, 4)
	if err != nil {
		t.Fatalf("enumeration failed: %v", err)
	}
	if len(expls) == 0 {
		t.Fatal("no explanations")
	}
	found := false
	for _, expl := range expls {
		for _, p := range expl {
			if p.Profile.Key() == "domain:status" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("status domain missing from %d explanations", len(expls))
	}
}

func TestDatasetLevelDecisionTree(t *testing.T) {
	sys, pass, fail := statusScenario()
	e := &core.Explainer{System: sys, Tau: 0.1, Seed: 83}
	res, err := e.ExplainWithDecisionTreePVTsContext(context.Background(), e.Candidates(pass, fail), []*dataset.Dataset{pass}, fail)
	if err != nil {
		t.Fatalf("dataset-level decision tree failed: %v", err)
	}
	if !strings.Contains(res.ExplanationString(), "Domain, status") {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
}

func TestDatasetLevelDecisionTreeNoPassingExample(t *testing.T) {
	sys, _, fail := statusScenario()
	e := &core.Explainer{System: sys, Tau: 0.1, Seed: 84}
	// Only failing examples supplied: discovery anchored on a failing
	// dataset finds no discriminative candidates.
	pvts := e.Candidates(fail.Clone(), fail)
	if len(pvts) != 0 {
		t.Fatalf("%d candidates discriminate fail from itself, want 0", len(pvts))
	}
	if _, err := e.ExplainWithDecisionTreePVTsContext(context.Background(), pvts, []*dataset.Dataset{fail.Clone()}, fail); err == nil {
		t.Error("no passing exemplar should fail cleanly")
	}
}

func TestExplainerDefaults(t *testing.T) {
	sys, pass, fail := statusScenario()
	// Custom options thread through the dataset-level entry points.
	opts := profile.Options{}
	opts.Classes = map[string]bool{"selectivity": false, "indep": false}
	e := &core.Explainer{System: sys, Tau: 0.1, Options: &opts, Seed: 85}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(pass, fail), fail)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Explanation {
		if p.Profile.Type() == "selectivity" || p.Profile.Type() == "indep" {
			t.Errorf("disabled class leaked into explanation: %s", p)
		}
	}
	if res.ExplanationString() == "" || !strings.HasPrefix(res.ExplanationString(), "{") {
		t.Errorf("ExplanationString = %q", res.ExplanationString())
	}
}
