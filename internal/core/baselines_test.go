package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

func TestBugDocSingleCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 20, NumAttrs: 5, Conjunction: 1, Seed: 21})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 21}
	res, err := e.ExplainBugDocPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("bugdoc failed: %v", err)
	}
	if !containsIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("explanation = %s missing cause X%d", res.ExplanationString(), sc.GroundTruth[0][0]+1)
	}
	// Linear-ish cost: sampling (2 log k) + shrink (≤ k) + verifications.
	if res.Interventions > 2*20+20 {
		t.Errorf("interventions = %d, too many", res.Interventions)
	}
	if res.FinalScore > e.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}

func TestBugDocConjunction(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 4, Conjunction: 3, Seed: 22})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 22}
	res, err := e.ExplainBugDocPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("bugdoc failed: %v", err)
	}
	for _, idx := range sc.GroundTruth[0] {
		if !containsIndex(res.Explanation, idx) {
			t.Errorf("missing ground-truth X%d in %s", idx+1, res.ExplanationString())
		}
	}
}

func TestBugDocNoExplanation(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 2, Seed: 23})
	stubborn := &pipeline.Func{SystemName: "stubborn", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	e := &core.Explainer{System: stubborn, Tau: 0.1, Seed: 23}
	if _, err := e.ExplainBugDocPVTsContext(context.Background(), sc.PVTs, sc.Fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("err = %v, want ErrNoExplanation", err)
	}
}

func TestAnchorSingleCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 6, NumAttrs: 3, Conjunction: 1, Seed: 24})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 24}
	res, err := e.ExplainAnchorPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("anchor failed: %v", err)
	}
	if !containsIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("explanation = %s missing cause", res.ExplanationString())
	}
	// Anchor burns far more interventions than DataPrism on the same task.
	resGRD, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interventions <= 5*resGRD.Interventions {
		t.Errorf("anchor %d vs greedy %d: expected order-of-magnitude gap",
			res.Interventions, resGRD.Interventions)
	}
}

func TestAnchorBudgetExhaustion(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 10, NumAttrs: 2, Conjunction: 1, Seed: 25})
	stubborn := &pipeline.Func{SystemName: "stubborn", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	e := &core.Explainer{System: stubborn, Tau: 0.1, Seed: 25, MaxInterventions: 30}
	res, err := e.ExplainAnchorPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if !errors.Is(err, core.ErrNoExplanation) {
		t.Fatalf("err = %v", err)
	}
	if res.Interventions > 31 {
		t.Errorf("interventions = %d exceed budget", res.Interventions)
	}
}

// TestMakeMinimalOutOfBudget runs GT on a root cause that is the
// conjunction of all 40 candidates: the full search needs 117
// interventions, the last of them Make-Minimal's drop checks. One fewer
// leaves a drop check unscored, so the search reports its explanation with
// an error wrapping engine.ErrBudgetExhausted.
func TestMakeMinimalOutOfBudget(t *testing.T) {
	const n = 40
	sc := synth.New(synth.Options{NumPVTs: n, NumAttrs: n, Conjunction: n, Seed: 3})
	meanFlag := &pipeline.Func{SystemName: "all-flags", Score: func(d *dataset.Dataset) float64 {
		c := d.Column(synth.FlagColumn)
		sum := 0.0
		for i := 0; i < c.Len(); i++ {
			sum += c.NumAt(i)
		}
		return sum / float64(c.Len())
	}}
	for _, budget := range []int{116, 117} {
		e := &core.Explainer{System: meanFlag, Tau: 0.5 / n, Seed: 3, MaxInterventions: budget}
		res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if !res.Found || len(res.Explanation) != n || res.FinalScore > e.Tau {
			t.Fatalf("budget %d: found %v, %d PVTs, final score %g; want the %d-PVT explanation", budget, res.Found, len(res.Explanation), res.FinalScore, n)
		}
		if got, want := errors.Is(err, engine.ErrBudgetExhausted), budget < 117; got != want || (err != nil) != want {
			t.Errorf("budget %d: err = %v after %d interventions, want budget exhausted: %v", budget, err, res.Interventions, want)
		}
	}
}

func TestGrpTestBaseline(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Conjunction: 1, Seed: 26})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 26, RandomBisection: true}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("grptest failed: %v", err)
	}
	if !containsIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
	if res.Interventions >= 32 {
		t.Errorf("grptest interventions = %d, want logarithmic", res.Interventions)
	}
}

func TestBaselinesEmptyCandidates(t *testing.T) {
	sys := &pipeline.Func{SystemName: "s", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	e := &core.Explainer{System: sys, Tau: 0.1}
	fail := synth.FailingDataset(1)
	if _, err := e.ExplainBugDocPVTsContext(context.Background(), nil, fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Error("bugdoc with no candidates should fail cleanly")
	}
	if _, err := e.ExplainAnchorPVTsContext(context.Background(), nil, fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Error("anchor with no candidates should fail cleanly")
	}
}

// TestTracesIndexCandidates checks that BugDoc and Anchor log each
// configuration by the indices of the candidates it enables.
func TestTracesIndexCandidates(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 4, Conjunction: 2, Seed: 27})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 27}
	for _, tc := range []struct {
		name string
		run  func(context.Context, []*core.PVT, *dataset.Dataset) (*core.Result, error)
	}{{"bugdoc", e.ExplainBugDocPVTsContext}, {"anchor", e.ExplainAnchorPVTsContext}} {
		name := tc.name
		res, err := tc.run(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Candidates) != len(sc.PVTs) || len(res.Trace) == 0 {
			t.Fatalf("%s: %d candidates, %d steps", name, len(res.Candidates), len(res.Trace))
		}
		for i, step := range res.Trace {
			for j, id := range step.PVTs {
				if id < 0 || id >= len(sc.PVTs) || (j > 0 && id <= step.PVTs[j-1]) {
					t.Fatalf("%s: step %d ids %v are not ascending candidate indices", name, i, step.PVTs)
				}
			}
		}
	}
}
