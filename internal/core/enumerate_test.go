package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

func TestEnumerateExplanationsDisjunction(t *testing.T) {
	// Three alternative singleton causes → three distinct minimal
	// explanations should be enumerable.
	sc := synth.New(synth.Options{NumPVTs: 18, NumAttrs: 6, Disjunction: 3, Seed: 41})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 41}
	expls, err := e.EnumerateExplanationsPVTsContext(context.Background(), sc.PVTs, sc.Fail, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) != 3 {
		t.Fatalf("found %d explanations, want 3 (the three disjuncts)", len(expls))
	}
	truth := map[int]bool{}
	for _, disj := range sc.GroundTruth {
		truth[disj[0]] = true
	}
	seen := map[int]bool{}
	for _, expl := range expls {
		if len(expl) != 1 {
			t.Errorf("explanation %v not singleton", expl)
			continue
		}
		idx := expl[0].Profile.(*synth.Profile).Index
		if !truth[idx] {
			t.Errorf("X%d is not a ground-truth cause", idx+1)
		}
		if seen[idx] {
			t.Errorf("duplicate explanation X%d", idx+1)
		}
		seen[idx] = true
	}
}

func TestEnumerateExplanationsSingle(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 12, NumAttrs: 4, Conjunction: 1, Seed: 42})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 42}
	expls, err := e.EnumerateExplanationsPVTsContext(context.Background(), sc.PVTs, sc.Fail, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(expls) != 1 {
		t.Errorf("found %d explanations, want exactly 1", len(expls))
	}
}

func TestEnumerateExplanationsNone(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 6, NumAttrs: 2, Seed: 43})
	stubborn := &pipeline.Func{SystemName: "s", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	e := &core.Explainer{System: stubborn, Tau: 0.1, Seed: 43}
	if _, err := e.EnumerateExplanationsPVTsContext(context.Background(), sc.PVTs, sc.Fail, 3); !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("err = %v", err)
	}
	if _, err := e.EnumerateExplanationsPVTsContext(context.Background(), nil, sc.Fail, 3); !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("empty pool err = %v", err)
	}
}

func TestVerifyExplanation(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 4, Conjunction: 2, Seed: 44})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 44}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	ok, calls := core.VerifyExplanationContext(context.Background(), pipeline.AsContext(sc.System), e.Tau, sc.Fail, res.Explanation, 44, true)
	if !ok {
		t.Error("reported explanation failed independent verification")
	}
	if calls < 1 {
		t.Error("verification should spend oracle calls")
	}
	// A padded (non-minimal) explanation fails the minimality check.
	var extra *core.PVT
	for _, p := range sc.PVTs {
		inExpl := false
		for _, q := range res.Explanation {
			if p == q {
				inExpl = true
			}
		}
		if !inExpl {
			extra = p
			break
		}
	}
	padded := append(append([]*core.PVT(nil), res.Explanation...), extra)
	if ok, _ := core.VerifyExplanationContext(context.Background(), pipeline.AsContext(sc.System), e.Tau, sc.Fail, padded, 44, true); ok {
		t.Error("padded explanation should fail minimality verification")
	}
	// But it passes without the minimality check (it does fix the system).
	if ok, _ := core.VerifyExplanationContext(context.Background(), pipeline.AsContext(sc.System), e.Tau, sc.Fail, padded, 44, false); !ok {
		t.Error("padded explanation should still repair the system")
	}
	// An unrelated singleton fails outright.
	if ok, _ := core.VerifyExplanationContext(context.Background(), pipeline.AsContext(sc.System), e.Tau, sc.Fail, []*core.PVT{extra}, 44, false); ok {
		t.Error("non-cause explanation should fail verification")
	}
}
