package baselines

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

func hasIndex(expl []*core.PVT, idx int) bool {
	for _, p := range expl {
		if sp, ok := p.Profile.(*synth.Profile); ok && sp.Index == idx {
			return true
		}
	}
	return false
}

func TestBugDocSingleCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 20, NumAttrs: 5, Conjunction: 1, Seed: 21})
	cfg := Config{System: sc.System, Tau: 0.05, Seed: 21}
	res, err := BugDocContext(context.Background(), cfg, sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("bugdoc failed: %v", err)
	}
	if !hasIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("explanation = %s missing cause X%d", res.ExplanationString(), sc.GroundTruth[0][0]+1)
	}
	// Linear-ish cost: sampling (2 log k) + shrink (≤ k) + verifications.
	if res.Interventions > 2*20+20 {
		t.Errorf("interventions = %d, too many", res.Interventions)
	}
	if res.FinalScore > cfg.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}

func TestBugDocConjunction(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 4, Conjunction: 3, Seed: 22})
	cfg := Config{System: sc.System, Tau: 0.05, Seed: 22}
	res, err := BugDocContext(context.Background(), cfg, sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("bugdoc failed: %v", err)
	}
	for _, idx := range sc.GroundTruth[0] {
		if !hasIndex(res.Explanation, idx) {
			t.Errorf("missing ground-truth X%d in %s", idx+1, res.ExplanationString())
		}
	}
}

func TestBugDocNoExplanation(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 2, Seed: 23})
	stubborn := &pipeline.Func{SystemName: "stubborn", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	cfg := Config{System: stubborn, Tau: 0.1, Seed: 23}
	if _, err := BugDocContext(context.Background(), cfg, sc.PVTs, sc.Fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("err = %v, want ErrNoExplanation", err)
	}
}

func TestAnchorSingleCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 6, NumAttrs: 3, Conjunction: 1, Seed: 24})
	cfg := Config{System: sc.System, Tau: 0.05, Seed: 24}
	res, err := AnchorContext(context.Background(), cfg, sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("anchor failed: %v", err)
	}
	if !hasIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("explanation = %s missing cause", res.ExplanationString())
	}
	// Anchor burns far more interventions than DataPrism on the same task.
	grd := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 24}
	resGRD, err := grd.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
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
	cfg := Config{System: stubborn, Tau: 0.1, Seed: 25, MaxInterventions: 30}
	res, err := AnchorContext(context.Background(), cfg, sc.PVTs, sc.Fail)
	if !errors.Is(err, core.ErrNoExplanation) {
		t.Fatalf("err = %v", err)
	}
	if res.Interventions > 31 {
		t.Errorf("interventions = %d exceed budget", res.Interventions)
	}
}

// TestGrpTestDefaultBudget runs group testing, with Config's default
// budget, on a root cause that is the conjunction of all 3,400 candidates:
// it needs 10,198 interventions, more than core.Explainer's own default
// of 10,000 allows and fewer than the 100,000 Config documents.
func TestGrpTestDefaultBudget(t *testing.T) {
	const n = 3400
	sc := synth.New(synth.Options{NumPVTs: n, NumAttrs: n, Conjunction: n, Seed: 3})
	meanFlag := &pipeline.Func{SystemName: "all-flags", Score: func(d *dataset.Dataset) float64 {
		c := d.Column(synth.FlagColumn)
		sum := 0.0
		for i := 0; i < c.Len(); i++ {
			sum += c.NumAt(i)
		}
		return sum / float64(c.Len())
	}}
	cfg := Config{System: meanFlag, Tau: 0.5 / n, Seed: 3}
	res, err := GrpTestContext(context.Background(), cfg, sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("grptest after %d interventions: %v", res.Interventions, err)
	}
	if len(res.Explanation) != n || res.Interventions <= 10000 {
		t.Errorf("explanation of %d PVTs after %d interventions, want %d PVTs after more than 10000",
			len(res.Explanation), res.Interventions, n)
	}
}

func TestGrpTestBaseline(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Conjunction: 1, Seed: 26})
	cfg := Config{System: sc.System, Tau: 0.05, Seed: 26}
	res, err := GrpTestContext(context.Background(), cfg, sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("grptest failed: %v", err)
	}
	if !hasIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
	if res.Interventions >= 32 {
		t.Errorf("grptest interventions = %d, want logarithmic", res.Interventions)
	}
}

func TestBaselinesEmptyCandidates(t *testing.T) {
	sys := &pipeline.Func{SystemName: "s", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	cfg := Config{System: sys, Tau: 0.1}
	fail := synth.FailingDataset(1)
	if _, err := BugDocContext(context.Background(), cfg, nil, fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Error("bugdoc with no candidates should fail cleanly")
	}
	if _, err := AnchorContext(context.Background(), cfg, nil, fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Error("anchor with no candidates should fail cleanly")
	}
}

// TestTracesIndexCandidates checks that BugDoc and Anchor log each
// configuration by the indices of the candidates it enables.
func TestTracesIndexCandidates(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 4, Conjunction: 2, Seed: 27})
	cfg := Config{System: sc.System, Tau: 0.05, Seed: 27}
	for _, tc := range []struct {
		name string
		run  func(context.Context, Config, []*core.PVT, *dataset.Dataset) (*core.Result, error)
	}{{"bugdoc", BugDocContext}, {"anchor", AnchorContext}} {
		name := tc.name
		res, err := tc.run(context.Background(), cfg, sc.PVTs, sc.Fail)
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

// TestOracleCallsAreInterventions: apart from the baseline score of the
// failing dataset, every oracle call a baseline makes — BugDoc's final
// verification included — is a counted intervention.
func TestOracleCallsAreInterventions(t *testing.T) {
	algos := map[string]func(context.Context, Config, []*core.PVT, *dataset.Dataset) (*core.Result, error){
		"BugDoc": BugDocContext, "Anchor": AnchorContext, "GrpTest": GrpTestContext,
	}
	for _, pvts := range []int{8, 20, 50} {
		for conj := 1; conj <= 3; conj++ {
			for _, disj := range []int{0, 2, 3} {
				for seed := int64(0); seed < 10; seed++ {
					opts := synth.Options{NumPVTs: pvts, NumAttrs: pvts / 2, Conjunction: conj, Disjunction: disj, Seed: seed}
					sc := synth.New(opts)
					for name, run := range algos {
						var calls atomic.Int64
						sys := &pipeline.Func{SystemName: "counting", Score: func(d *dataset.Dataset) float64 {
							calls.Add(1)
							return sc.System.MalfunctionScore(d)
						}}
						res, _ := run(context.Background(), Config{System: sys, Tau: 0.05, Seed: seed}, sc.PVTs, sc.Fail)
						if got, want := calls.Load(), int64(res.Interventions+1); got != want {
							t.Errorf("%s on %+v: %d oracle calls, want %d interventions + 1 baseline", name, opts, got, want)
						}
					}
				}
			}
		}
	}
}
