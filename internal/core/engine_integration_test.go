package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/transform"
)

// TestDeterminismAcrossWorkers is the engine's core contract: the worker
// pool only changes wall-clock time, never the search outcome. Same seed ⇒
// same explanation, same final score, and same counted interventions for
// Workers=1 and Workers=8, for both GRD and GT.
func TestDeterminismAcrossWorkers(t *testing.T) {
	type runner func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error)
	algos := map[string]runner{
		"GRD": func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
			return e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		},
		"GT": func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
			return e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		},
	}
	for seed := int64(0); seed < 6; seed++ {
		// Conjunction 2 exercises the make-minimal batch path too.
		sc := synth.New(synth.Options{NumPVTs: 24, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
		for name, run := range algos {
			seq := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Workers: 1}
			par := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Workers: 8}
			sres, serr := run(seq, sc)
			pres, perr := run(par, sc)
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s seed %d: error divergence: %v vs %v", name, seed, serr, perr)
			}
			if serr != nil {
				continue
			}
			if got, want := pres.ExplanationString(), sres.ExplanationString(); got != want {
				t.Errorf("%s seed %d: explanation differs across workers: %s vs %s", name, seed, got, want)
			}
			if pres.FinalScore != sres.FinalScore {
				t.Errorf("%s seed %d: final score differs: %v vs %v", name, seed, pres.FinalScore, sres.FinalScore)
			}
			if pres.Interventions != sres.Interventions {
				t.Errorf("%s seed %d: interventions differ: %d vs %d", name, seed, pres.Interventions, sres.Interventions)
			}
			if pres.Stats.CacheHits != sres.Stats.CacheHits {
				t.Errorf("%s seed %d: cache hits differ: %d vs %d", name, seed, pres.Stats.CacheHits, sres.Stats.CacheHits)
			}
			if len(pres.Trace) != len(sres.Trace) {
				t.Errorf("%s seed %d: trace length differs: %d vs %d", name, seed, len(pres.Trace), len(sres.Trace))
			}
		}
	}
}

// cancelAfter wraps a System in a ContextSystem that cancels the search
// after n evaluations — simulating a caller pulling the plug mid-search.
func cancelAfter(sys pipeline.System, n int64, cancel context.CancelFunc) pipeline.ContextSystem {
	var evals atomic.Int64
	return &pipeline.CtxFunc{
		SystemName: sys.Name(),
		Score: func(_ context.Context, d *dataset.Dataset) float64 {
			if evals.Add(1) == n {
				cancel()
			}
			return sys.MalfunctionScore(d)
		},
	}
}

func TestCancellationMidGreedySearch(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Conjunction: 1, CauseCoverageRank: 30, Seed: 9})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := &core.Explainer{ContextSystem: cancelAfter(sc.System, 4, cancel), Tau: 0.05, Seed: 9, Workers: 2}
	start := time.Now()
	res, err := e.ExplainGreedyPVTsContext(ctx, sc.PVTs, sc.Fail)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled search must return the partial result")
	}
	if len(res.Trace) == 0 {
		t.Error("cancelled search should carry a partial trace")
	}
	if res.Found {
		t.Error("cancelled search reported Found")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation not prompt: %v", elapsed)
	}
}

func TestCancellationMidGroupTest(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 64, NumAttrs: 8, Conjunction: 1, CauseTopBenefit: true, Seed: 5})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := &core.Explainer{ContextSystem: cancelAfter(sc.System, 4, cancel), Tau: 0.05, Seed: 5, Workers: 2}
	res, err := e.ExplainGroupTestPVTsContext(ctx, sc.PVTs, sc.Fail)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Found {
		t.Fatal("cancelled GT must return a partial, not-found result")
	}
	if len(res.Trace) == 0 {
		t.Error("cancelled GT should carry a partial trace")
	}
}

// TestMemoCacheHitsDuringSearch builds a scenario with two PVTs repairing
// the same underlying defect (both clear flag 0): group testing and the
// make-minimal post-pass then compose identical datasets more than once,
// which the engine's fingerprint cache must serve without extra
// interventions.
func TestMemoCacheHitsDuringSearch(t *testing.T) {
	profiles := []*synth.Profile{
		{Index: 0, Attrs: []string{"a0"}, Cov: 0.9},
		{Index: 0, Attrs: []string{"a0"}, Cov: 0.7}, // duplicate repair of flag 0
		{Index: 1, Attrs: []string{"a1"}, Cov: 0.8},
	}
	pvts := make([]*core.PVT, len(profiles))
	for i, p := range profiles {
		pvts[i] = &core.PVT{Profile: p, Transforms: []transform.Transformation{&synth.Transform{P: p}}}
	}
	// Root cause: flag 0 AND flag 1 must both clear (profiles[0] and [2]).
	sys := &synth.DNFSystem{Label: "dup-repair", Disjuncts: [][]int{{0, 2}}, Profiles: profiles}
	fail := synth.FailingDataset(2)

	e := &core.Explainer{System: sys, Tau: 0.05, Seed: 3}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), pvts, fail)
	if err != nil {
		t.Fatalf("GT failed: %v", err)
	}
	if !res.Found {
		t.Fatal("no explanation found")
	}
	if res.Stats.CacheHits == 0 {
		t.Fatalf("expected memo-cache hits on duplicate-repair run, stats = %+v", res.Stats)
	}
	if res.Stats.Interventions != res.Interventions {
		t.Fatalf("Result.Interventions (%d) != Stats.Interventions (%d)", res.Interventions, res.Stats.Interventions)
	}
	if res.Stats.Latency.Count == 0 {
		t.Fatal("latency histogram empty")
	}
}

// TestContextSystemPreferred checks that a configured ContextSystem wins
// over the legacy System field and actually receives the caller's context.
func TestContextSystemPreferred(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 4, Conjunction: 1, Seed: 2})
	type ctxKey struct{}
	sawValue := atomic.Bool{}
	cs := &pipeline.CtxFunc{SystemName: "ctx-aware", Score: func(ctx context.Context, d *dataset.Dataset) float64 {
		if ctx.Value(ctxKey{}) == "marker" {
			sawValue.Store(true)
		}
		return sc.System.MalfunctionScore(d)
	}}
	legacy := &pipeline.Func{SystemName: "legacy", Score: func(d *dataset.Dataset) float64 {
		t.Error("legacy System called although ContextSystem was set")
		return 1
	}}
	e := &core.Explainer{System: legacy, ContextSystem: cs, Tau: 0.05, Seed: 2}
	ctx := context.WithValue(context.Background(), ctxKey{}, "marker")
	if _, err := e.ExplainGreedyPVTsContext(ctx, sc.PVTs, sc.Fail); err != nil {
		t.Fatal(err)
	}
	if !sawValue.Load() {
		t.Error("caller context did not reach the system")
	}
}

// TestOracleCallsAreInterventions: apart from the one baseline score of the
// failing dataset, every oracle call a search makes is a counted
// intervention — GT's verification of its composed fix and BugDoc's final
// verification included (GT's reaches the oracle when the recursion ended
// on a singleton it applied without scoring). The grid covers conjunctive
// and disjunctive causes over 8 to 100 PVTs and 40 seeds; the baselines,
// whose interventions grow linearly or worse, run as their own subtest on
// up to 50 PVTs and 10 seeds.
func TestOracleCallsAreInterventions(t *testing.T) {
	type search struct {
		name string
		run  func(*core.Explainer, *synth.Scenario) (*core.Result, error)
	}
	for _, group := range []struct {
		name     string
		pvts     []int
		seeds    int64
		searches []search
	}{
		{"dataprism", []int{8, 20, 50, 100}, 40, []search{
			{"GRD", func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
				return e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
			}},
			{"GT", func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
				return e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
			}},
			{"decision tree", func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
				return e.ExplainWithDecisionTreePVTsContext(context.Background(), sc.PVTs, []*dataset.Dataset{sc.Fail}, sc.Fail)
			}},
		}},
		{"baselines", []int{8, 20, 50}, 10, []search{
			{"BugDoc", func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
				return e.ExplainBugDocPVTsContext(context.Background(), sc.PVTs, sc.Fail)
			}},
			{"Anchor", func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
				return e.ExplainAnchorPVTsContext(context.Background(), sc.PVTs, sc.Fail)
			}},
			{"GrpTest", func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
				e.RandomBisection = true
				return e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
			}},
		}},
	} {
		t.Run(group.name, func(t *testing.T) {
			for _, pvts := range group.pvts {
				for conj := 1; conj <= 3; conj++ {
					for _, disj := range []int{0, 2, 3} {
						for seed := int64(0); seed < group.seeds; seed++ {
							opts := synth.Options{NumPVTs: pvts, NumAttrs: pvts / 2, Conjunction: conj, Disjunction: disj, Seed: seed}
							sc := synth.New(opts)
							for _, s := range group.searches {
								sys := counting(sc.System)
								res, _ := s.run(&core.Explainer{System: sys, Tau: 0.05, Seed: seed}, sc)
								if got, want := sys.Calls(), res.Interventions+1; got != want {
									t.Errorf("%s on %+v: %d oracle calls, want %d interventions + 1 baseline", s.name, opts, got, want)
								}
							}
						}
					}
				}
			}
		})
	}
}
