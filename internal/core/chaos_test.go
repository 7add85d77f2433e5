package core_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

// chaosChain wraps a synthetic scenario's scorer in the full fault-tolerance
// stack: injector (K transient failures per distinct dataset) under a retry
// wrapper tight enough to absorb them.
func chaosChain(sys pipeline.System, failFirst, maxAttempts int) (*pipeline.FaultInjector, pipeline.FallibleSystem) {
	fi := &pipeline.FaultInjector{
		System:    pipeline.AsFallible(pipeline.AsContext(sys)),
		FailFirst: failFirst,
	}
	return fi, &pipeline.Retry{System: fi, Max: maxAttempts, BaseDelay: 50 * time.Microsecond}
}

// TestChaosExplanationsMatchFaultFree is the acceptance bar of the
// fault-tolerance layer: with every evaluation failing transiently K ≤ 2
// times before succeeding, GRD and GT must return byte-identical
// explanations, final scores, intervention counts, and traces to the
// fault-free run — for Workers 1 and 8 alike — with the failed attempts
// visible only in the retry counter.
func TestChaosExplanationsMatchFaultFree(t *testing.T) {
	type runner func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error)
	algos := map[string]runner{
		"GRD": func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
			return e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		},
		"GT": func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
			return e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		},
	}
	for _, failFirst := range []int{1, 2} {
		for seed := int64(0); seed < 3; seed++ {
			sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
			for name, run := range algos {
				clean := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Workers: 1}
				want, wantErr := run(clean, sc)
				for _, workers := range []int{1, 8} {
					fi, fall := chaosChain(sc.System, failFirst, failFirst+1)
					e := &core.Explainer{FallibleSystem: fall, Tau: 0.05, Seed: seed, Workers: workers}
					got, gotErr := run(e, sc)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s seed %d K=%d workers=%d: error divergence: %v vs %v",
							name, seed, failFirst, workers, gotErr, wantErr)
					}
					if wantErr != nil {
						continue
					}
					if got.ExplanationString() != want.ExplanationString() {
						t.Errorf("%s seed %d K=%d workers=%d: explanation %s, fault-free %s",
							name, seed, failFirst, workers, got.ExplanationString(), want.ExplanationString())
					}
					if got.FinalScore != want.FinalScore || got.InitialScore != want.InitialScore {
						t.Errorf("%s seed %d K=%d workers=%d: scores (%v,%v) vs (%v,%v)",
							name, seed, failFirst, workers, got.InitialScore, got.FinalScore, want.InitialScore, want.FinalScore)
					}
					if got.Interventions != want.Interventions {
						t.Errorf("%s seed %d K=%d workers=%d: interventions %d, fault-free %d — failed attempts must not count",
							name, seed, failFirst, workers, got.Interventions, want.Interventions)
					}
					if len(got.Trace) != len(want.Trace) {
						t.Errorf("%s seed %d K=%d workers=%d: trace length %d vs %d",
							name, seed, failFirst, workers, len(got.Trace), len(want.Trace))
					}
					if got.Stats.Retries == 0 {
						t.Errorf("%s seed %d K=%d workers=%d: no retries recorded despite injected faults",
							name, seed, failFirst, workers)
					}
					if got.Stats.TransientFailures != 0 {
						t.Errorf("%s seed %d K=%d workers=%d: %d transient failures leaked past retry (Max=%d)",
							name, seed, failFirst, workers, got.Stats.TransientFailures, failFirst+1)
					}
					if fi.Injected() == 0 {
						t.Errorf("%s seed %d K=%d workers=%d: injector idle — chaos test exercised nothing",
							name, seed, failFirst, workers)
					}
				}
			}
		}
	}
}

// TestChaosDeterminismAcrossWorkers pins the stronger property: two chaos
// runs with different Workers settings agree with each other in every
// observable counter, including cache behavior.
func TestChaosDeterminismAcrossWorkers(t *testing.T) {
	seed := int64(4)
	sc := synth.New(synth.Options{NumPVTs: 24, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
	run := func(workers int) (*core.Result, error) {
		_, fall := chaosChain(sc.System, 2, 3)
		e := &core.Explainer{FallibleSystem: fall, Tau: 0.05, Seed: seed, Workers: workers}
		return e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	}
	seq, serr := run(1)
	par, perr := run(8)
	if (serr == nil) != (perr == nil) {
		t.Fatalf("error divergence: %v vs %v", serr, perr)
	}
	if serr != nil {
		t.Skipf("scenario unsolvable: %v", serr)
	}
	if seq.ExplanationString() != par.ExplanationString() {
		t.Errorf("explanations differ: %s vs %s", seq.ExplanationString(), par.ExplanationString())
	}
	if seq.Interventions != par.Interventions ||
		seq.Stats.CacheHits != par.Stats.CacheHits ||
		seq.Stats.CacheMisses != par.Stats.CacheMisses ||
		seq.Stats.Retries != par.Stats.Retries {
		t.Errorf("counter divergence under chaos: seq %+v vs par %+v", seq.Stats, par.Stats)
	}
}

// deadExceptBaseline succeeds on the original failing dataset (so the
// baseline measurement lands) and fails transiently on every transformed
// candidate — a scorer that dies as soon as the search starts intervening.
func deadExceptBaseline(sys pipeline.System, baseline *dataset.Dataset) pipeline.FallibleSystem {
	fp := baseline.Fingerprint()
	inner := pipeline.AsFallible(pipeline.AsContext(sys))
	return &pipeline.TryFunc{SystemName: sys.Name(), Try: func(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		if d.Fingerprint() == fp {
			return inner.TryMalfunctionScore(ctx, d)
		}
		return pipeline.ScoreResult{
			Score:     math.NaN(),
			Err:       pipeline.ErrTransient,
			Transient: true,
			Attempts:  1,
		}
	}}
}

// TestChaosBreakerAbortsSearch: when the scorer dies permanently, the
// breaker must open and the search must surface ErrBreakerOpen instead of
// silently burning its whole candidate list on doomed evaluations.
func TestChaosBreakerAbortsSearch(t *testing.T) {
	seed := int64(1)
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 1, CauseTopBenefit: true, Seed: seed})
	fall := &pipeline.Breaker{
		System:           &pipeline.Retry{System: deadExceptBaseline(sc.System, sc.Fail), Max: 2, BaseDelay: 50 * time.Microsecond},
		FailureThreshold: 2,
		Cooldown:         time.Hour,
	}
	e := &core.Explainer{FallibleSystem: fall, Tau: 0.05, Seed: seed, Workers: 1}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if !errors.Is(err, pipeline.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen surfaced by the search", err)
	}
	if res == nil {
		t.Fatal("aborted search must return the partial result")
	}
	if res.Found {
		t.Error("search claimed success with a dead scorer")
	}
	if res.Stats.BreakerTrips == 0 {
		t.Error("no breaker trip recorded")
	}
	if res.Interventions != 0 {
		t.Errorf("interventions = %d, want 0: nothing was ever scored", res.Interventions)
	}
}

// TestChaosBudgetRefundLeavesRoom: failed evaluations must refund the
// budget, so a tight budget plus absorbed faults still completes exactly
// like the fault-free run.
func TestChaosBudgetRefundLeavesRoom(t *testing.T) {
	seed := int64(2)
	sc := synth.New(synth.Options{NumPVTs: 12, NumAttrs: 5, Conjunction: 1, CauseTopBenefit: true, Seed: seed})
	clean := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Workers: 1}
	want, wantErr := clean.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if wantErr != nil {
		t.Fatalf("fault-free run failed: %v", wantErr)
	}
	// Budget exactly what the fault-free run needed: with refunds working,
	// the chaos run fits; without them, the injected failures would eat the
	// budget and the search would fall short.
	_, fall := chaosChain(sc.System, 2, 3)
	e := &core.Explainer{FallibleSystem: fall, Tau: 0.05, Seed: seed, Workers: 1, MaxInterventions: want.Interventions}
	got, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("chaos run under exact budget failed: %v", err)
	}
	if got.ExplanationString() != want.ExplanationString() || got.Interventions != want.Interventions {
		t.Fatalf("chaos run diverged under exact budget: %s/%d vs %s/%d",
			got.ExplanationString(), got.Interventions, want.ExplanationString(), want.Interventions)
	}
}
