package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/transform"
)

// containsIndex reports whether the explanation includes the synthetic PVT
// with the given flag index.
func containsIndex(expl []*core.PVT, idx int) bool {
	for _, p := range expl {
		if sp, ok := p.Profile.(*synth.Profile); ok && sp.Index == idx {
			return true
		}
	}
	return false
}

func TestGreedySingleCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 20, NumAttrs: 5, Conjunction: 1, Seed: 1})
	e := &core.Explainer{System: sc.System, Tau: 0.1, Seed: 1}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("greedy failed: %v", err)
	}
	if !res.Found {
		t.Fatal("not found")
	}
	cause := sc.GroundTruth[0][0]
	if len(res.Explanation) != 1 || !containsIndex(res.Explanation, cause) {
		t.Errorf("explanation = %s, want {X%d}", res.ExplanationString(), cause+1)
	}
	if res.FinalScore > e.Tau {
		t.Errorf("final score = %g > tau", res.FinalScore)
	}
	if res.Interventions <= 0 || res.Interventions > 20 {
		t.Errorf("interventions = %d", res.Interventions)
	}
	if res.Discriminative != 20 {
		t.Errorf("discriminative = %d", res.Discriminative)
	}
}

func TestGreedyConjunctiveCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 24, NumAttrs: 6, Conjunction: 3, Seed: 2})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 2}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("greedy failed: %v", err)
	}
	if len(res.Explanation) != 3 {
		t.Fatalf("explanation size = %d, want 3: %s", len(res.Explanation), res.ExplanationString())
	}
	for _, idx := range sc.GroundTruth[0] {
		if !containsIndex(res.Explanation, idx) {
			t.Errorf("missing ground-truth PVT X%d", idx+1)
		}
	}
}

func TestGreedyMinimality(t *testing.T) {
	// The returned explanation must be minimal: dropping any PVT leaves the
	// malfunction above tau (Definition 11), verified against the system.
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 4, Conjunction: 2, Seed: 3})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 3}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	for drop := range res.Explanation {
		reduced := make([]*core.PVT, 0, len(res.Explanation)-1)
		for i, p := range res.Explanation {
			if i != drop {
				reduced = append(reduced, p)
			}
		}
		// Re-apply the reduced set on the failing dataset.
		d := sc.Fail
		for _, p := range reduced {
			out, err := p.Transforms[0].Apply(d, nil)
			if err != nil {
				t.Fatal(err)
			}
			d = out
		}
		if s := sc.System.MalfunctionScore(d); s <= e.Tau {
			t.Errorf("dropping %s still passes (score %g): explanation not minimal", res.Explanation[drop], s)
		}
	}
}

func TestGroupTestSingleCause(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Conjunction: 1, Seed: 4})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 4}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("group test failed: %v", err)
	}
	cause := sc.GroundTruth[0][0]
	if len(res.Explanation) != 1 || !containsIndex(res.Explanation, cause) {
		t.Errorf("explanation = %s, want {X%d}", res.ExplanationString(), cause+1)
	}
	// Logarithmic cost: far fewer than |X| interventions.
	if res.Interventions >= 32 {
		t.Errorf("GT interventions = %d, want < 32", res.Interventions)
	}
}

func TestGroupTestDisjunction(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Disjunction: 3, Seed: 5})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 5}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("group test failed: %v", err)
	}
	// Any single ground-truth PVT is a valid minimal explanation.
	if len(res.Explanation) != 1 {
		t.Fatalf("explanation = %s, want a single PVT", res.ExplanationString())
	}
	found := false
	for _, disj := range sc.GroundTruth {
		if containsIndex(res.Explanation, disj[0]) {
			found = true
		}
	}
	if !found {
		t.Errorf("explanation %s is not a ground-truth cause", res.ExplanationString())
	}
}

func TestRandomBisectionBaseline(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Conjunction: 1, Seed: 6})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 6, RandomBisection: true}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("GrpTest baseline failed: %v", err)
	}
	if !res.Found || len(res.Explanation) != 1 {
		t.Errorf("GrpTest explanation = %s", res.ExplanationString())
	}
}

func TestAdversarialRankScenario(t *testing.T) {
	// Section 5.2: the true cause's benefit ranks 54th → GRD needs ~54
	// interventions while GT stays logarithmic.
	sc := synth.New(synth.Options{NumPVTs: 60, NumAttrs: 1, Conjunction: 1, Seed: 7, CauseCoverageRank: 54})
	grd := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 7}
	resGRD, err := grd.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if resGRD.Interventions != 54 {
		t.Errorf("GRD interventions = %d, want 54", resGRD.Interventions)
	}
	gt := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 7}
	resGT, err := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if resGT.Interventions >= resGRD.Interventions {
		t.Errorf("GT interventions = %d, want far fewer than GRD's %d", resGT.Interventions, resGRD.Interventions)
	}
}

func TestFigure6GroupTestBeatsRandom(t *testing.T) {
	// Figure 6: dependency-aware bisection requires no more interventions
	// than the traditional random-partition adaptive group testing
	// (averaged over seeds, since both are randomized).
	totalGT, totalRand := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		sc := synth.Figure6Scenario()
		gt := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed}
		r1, err := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			t.Fatal(err)
		}
		totalGT += r1.Interventions

		sc2 := synth.Figure6Scenario()
		rnd := &core.Explainer{System: sc2.System, Tau: 0.05, Seed: seed, RandomBisection: true}
		r2, err := rnd.ExplainGroupTestPVTsContext(context.Background(), sc2.PVTs, sc2.Fail)
		if err != nil {
			t.Fatal(err)
		}
		totalRand += r2.Interventions
	}
	// Both are randomized; on this toy the structured bisection should be
	// competitive (the paper reports 10 vs 14 for one execution).
	if float64(totalGT) > 1.3*float64(totalRand) {
		t.Errorf("GT total interventions %d far exceed random GT %d over 10 seeds", totalGT, totalRand)
	}
}

func TestAlignedBisectionBeatsRandom(t *testing.T) {
	// When PVTs sharing an attribute have correlated helpfulness — the
	// intuition behind Section 4.4's graph-guided partitioning — keeping
	// same-attribute PVTs together prunes spurious groups faster than
	// random partitioning, on average.
	build := func() *synth.Scenario {
		const k = 16
		profiles := make([]*synth.Profile, k)
		pvts := make([]*core.PVT, k)
		for i := 0; i < k; i++ {
			profiles[i] = &synth.Profile{
				Index: i,
				Attrs: []string{string(rune('a' + i/2))}, // pairs share attrs
				Cov:   0.5,
			}
			pvts[i] = &core.PVT{
				Profile:    profiles[i],
				Transforms: []transform.Transformation{&synth.Transform{P: profiles[i]}},
			}
		}
		// Ground truth: the attribute-sharing pair {X1, X2}.
		sys := &synth.DNFSystem{Label: "aligned", Disjuncts: [][]int{{0, 1}}, Profiles: profiles}
		return &synth.Scenario{PVTs: pvts, Fail: synth.FailingDataset(k), System: sys, GroundTruth: [][]int{{0, 1}}}
	}
	totalGT, totalRand := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		sc := build()
		gt := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed}
		r1, err := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			t.Fatal(err)
		}
		totalGT += r1.Interventions

		sc2 := build()
		rnd := &core.Explainer{System: sc2.System, Tau: 0.05, Seed: seed, RandomBisection: true}
		r2, err := rnd.ExplainGroupTestPVTsContext(context.Background(), sc2.PVTs, sc2.Fail)
		if err != nil {
			t.Fatal(err)
		}
		totalRand += r2.Interventions
	}
	if totalGT > totalRand {
		t.Errorf("aligned GT total %d > random GT total %d over 20 seeds", totalGT, totalRand)
	}
}

func TestNoExplanation(t *testing.T) {
	// A system whose malfunction never improves: both algorithms must
	// return ErrNoExplanation rather than a bogus explanation.
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 2, Conjunction: 1, Seed: 8})
	stubborn := &pipeline.Func{SystemName: "stubborn", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	e := &core.Explainer{System: stubborn, Tau: 0.1, Seed: 8}
	if _, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("greedy err = %v, want ErrNoExplanation", err)
	}
	if _, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("group test err = %v, want ErrNoExplanation", err)
	}
}

func TestAlreadyPassing(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 2, Conjunction: 1, Seed: 9})
	fine := &pipeline.Func{SystemName: "fine", Score: func(*dataset.Dataset) float64 { return 0 }}
	e := &core.Explainer{System: fine, Tau: 0.1, Seed: 9}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil || !res.Found || len(res.Explanation) != 0 || res.Interventions != 0 {
		t.Errorf("already-passing dataset should need no interventions: %+v err=%v", res, err)
	}
}

func TestInterventionBudget(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 40, NumAttrs: 1, Conjunction: 1, Seed: 10, CauseCoverageRank: 40})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 10, MaxInterventions: 5}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if !errors.Is(err, core.ErrNoExplanation) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if res.Interventions > 5 {
		t.Errorf("interventions = %d exceeds budget 5", res.Interventions)
	}
}

func TestBenefitModesAblation(t *testing.T) {
	// All benefit modes must still find the cause; the full benefit should
	// not be slower than random ordering on a scenario where coverage is
	// informative (cause has the highest coverage).
	sc := synth.New(synth.Options{NumPVTs: 30, NumAttrs: 1, Conjunction: 1, Seed: 11, CauseCoverageRank: 1})
	for _, mode := range []core.BenefitMode{core.BenefitFull, core.BenefitViolationOnly, core.BenefitCoverageOnly, core.BenefitRandom} {
		e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 11, Benefit: mode}
		res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			t.Errorf("mode %d failed: %v", mode, err)
			continue
		}
		if !containsIndex(res.Explanation, sc.GroundTruth[0][0]) {
			t.Errorf("mode %d: wrong explanation %s", mode, res.ExplanationString())
		}
		if mode == core.BenefitFull && res.Interventions != 1 {
			t.Errorf("full benefit with top-ranked cause should need 1 intervention, got %d", res.Interventions)
		}
	}
}

func TestDisableGraphPriorityAblation(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 20, NumAttrs: 5, Conjunction: 1, Seed: 12})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 12, DisableGraphPriority: true}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil || !containsIndex(res.Explanation, sc.GroundTruth[0][0]) {
		t.Errorf("graph-priority ablation failed: %v %s", err, res.ExplanationString())
	}
}

func TestDecisionTreeInteractingPVTs(t *testing.T) {
	// A system violating A2: only fixing BOTH X1 and X2 reduces the
	// malfunction; single fixes achieve nothing. The greedy algorithm's
	// per-PVT Δ>0 gate cannot accept either alone, but the Appendix B
	// decision-tree approach finds the conjunction from example datasets.
	const k = 6
	profiles := make([]*synth.Profile, k)
	pvts := make([]*core.PVT, k)
	for i := 0; i < k; i++ {
		profiles[i] = &synth.Profile{Index: i, Attrs: []string{"a"}, Cov: 0.5}
		pvts[i] = &core.PVT{
			Profile:    profiles[i],
			Transforms: []transform.Transformation{&synth.Transform{P: profiles[i]}},
		}
	}
	// All-or-nothing system: passes only when X1 and X2 are both repaired.
	sys := &pipeline.Func{SystemName: "and-gate", Score: func(d *dataset.Dataset) float64 {
		if profiles[0].Violation(d) == 0 && profiles[1].Violation(d) == 0 {
			return 0
		}
		return 0.9
	}}
	fail := synth.FailingDataset(k)

	// Greedy cannot make progress: no single intervention reduces the score.
	grd := &core.Explainer{System: sys, Tau: 0.1, Seed: 14}
	if _, err := grd.ExplainGreedyPVTsContext(context.Background(), pvts, fail); !errors.Is(err, core.ErrNoExplanation) {
		t.Fatalf("greedy err = %v, want ErrNoExplanation under violated A2", err)
	}

	// Example datasets with assorted repair patterns and outcomes.
	repair := func(idx ...int) *dataset.Dataset {
		d := synth.FailingDataset(k)
		for _, i := range idx {
			d.SetNum(synth.FlagColumn, i, 0)
		}
		return d
	}
	examples := []*dataset.Dataset{
		repair(0, 1, 2), // passes
		repair(0),       // fails
		repair(1),       // fails
		repair(2, 3),    // fails
	}
	dt := &core.Explainer{System: sys, Tau: 0.1, Seed: 14}
	res, err := dt.ExplainWithDecisionTreePVTsContext(context.Background(), pvts, examples, fail)
	if err != nil {
		t.Fatalf("decision tree failed: %v", err)
	}
	if len(res.Explanation) != 2 || !containsIndex(res.Explanation, 0) || !containsIndex(res.Explanation, 1) {
		t.Errorf("explanation = %s, want {X1, X2}", res.ExplanationString())
	}
	if res.FinalScore > dt.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}

// cancelOnRepair clears a synthetic flag, as synth.Transform does, but
// first cancels the search once the system has passed a composed repair.
type cancelOnRepair struct {
	t      *synth.Transform
	passed *atomic.Bool
	cancel context.CancelFunc
}

func (c *cancelOnRepair) Name() string                        { return c.t.Name() }
func (c *cancelOnRepair) Modifies() []string                  { return c.t.Modifies() }
func (c *cancelOnRepair) Coverage(d *dataset.Dataset) float64 { return c.t.Coverage(d) }
func (c *cancelOnRepair) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	if c.passed.Load() {
		c.cancel()
	}
	return c.t.Apply(d, rng)
}

// TestDecisionTreeMakeMinimalFailureKeepsVerifiedScore cancels the decision
// tree's search right after it verifies a conjunction, so its Make-Minimal
// fails: the result reports the conjunction's verified score, as GRD and
// GT do, not the failing dataset's.
func TestDecisionTreeMakeMinimalFailureKeepsVerifiedScore(t *testing.T) {
	const k = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var passed atomic.Bool
	profiles := make([]*synth.Profile, k)
	pvts := make([]*core.PVT, k)
	for i := range pvts {
		profiles[i] = &synth.Profile{Index: i, Attrs: []string{"a"}, Cov: 0.5}
		pvts[i] = &core.PVT{Profile: profiles[i], Transforms: []transform.Transformation{
			&cancelOnRepair{t: &synth.Transform{P: profiles[i]}, passed: &passed, cancel: cancel},
		}}
	}
	fail := synth.FailingDataset(k)
	pass := synth.FailingDataset(k)
	for i := 0; i < k; i++ {
		pass.SetNum(synth.FlagColumn, i, 0)
	}
	// Passes only when X1 and X2 are both repaired.
	sys := &pipeline.TryFunc{SystemName: "and-gate", Try: func(_ context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		if profiles[0].Violation(d) == 0 && profiles[1].Violation(d) == 0 {
			if d.Fingerprint() != pass.Fingerprint() {
				passed.Store(true)
			}
			return pipeline.ScoreResult{Score: 0, Attempts: 1}
		}
		return pipeline.ScoreResult{Score: 0.9, Attempts: 1}
	}}
	e := &core.Explainer{FallibleSystem: sys, Tau: 0.1, Seed: 1}
	res, err := e.ExplainWithDecisionTreePVTsContext(ctx, pvts, []*dataset.Dataset{pass}, fail)
	if !errors.Is(err, context.Canceled) || !passed.Load() {
		t.Fatalf("err = %v after a passing conjunction %v, want the cancellation during Make-Minimal", err, passed.Load())
	}
	if res.Found || res.InitialScore != 0.9 || res.FinalScore != 0 {
		t.Errorf("found %v, scores %g -> %g; want not found, 0.9 -> 0 (the verified conjunction's score)", res.Found, res.InitialScore, res.FinalScore)
	}
}

func TestTraceRecordsSteps(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 12, NumAttrs: 3, Conjunction: 2, Seed: 13})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 13}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	accepted := 0
	for _, s := range res.Trace {
		if s.Accepted {
			accepted++
		}
		if math.IsNaN(s.Score) {
			t.Error("trace step has NaN score")
		}
	}
	if accepted == 0 {
		t.Error("no accepted steps in trace")
	}
	if res.Runtime <= 0 {
		t.Error("runtime not recorded")
	}
}
