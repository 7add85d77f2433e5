package engine

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// TestCachePoisonRegression reproduces the live bug this layer fixes: a
// legacy scorer whose process is killed by cancellation returns the fallback
// score 1, and the old engine memoized it — every later lookup of that
// dataset then served the poisoned 1.0. The engine must discard scores
// computed under a cancelled context and re-evaluate on the next clean run.
func TestCachePoisonRegression(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	legacy := &pipeline.CtxFunc{SystemName: "legacy-flaky", Score: func(c context.Context, d *dataset.Dataset) float64 {
		if calls.Add(1) == 1 {
			cancel() // the caller pulls the plug mid-evaluation
			return 1 // the legacy "score 1 on any failure" artifact
		}
		return 0.2
	}}
	ev := New(pipeline.AsFallible(legacy), Config{Workers: 1})
	d := flagData(0.0)

	s, err := ev.Score(ctx, d)
	if err == nil {
		t.Fatalf("cancelled evaluation returned score %v without error", s)
	}
	if !math.IsNaN(s) {
		t.Fatalf("cancelled evaluation score = %v, want NaN", s)
	}
	if st := ev.Stats(); st.Interventions != 0 {
		t.Fatalf("cancelled evaluation consumed budget: %+v", st)
	}

	// A fresh context must re-evaluate — not serve the poisoned 1.0.
	s, err = ev.Score(context.Background(), d)
	if err != nil || s != 0.2 {
		t.Fatalf("post-cancel score = %v, %v; the poisoned artifact leaked from the cache", s, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("raw oracle calls = %d, want 2 (cancelled artifact must not be cached)", got)
	}
}

// TestFailedEvaluationNeverCachedAndRefunded drives a scorer that fails
// twice before succeeding, without a Retry wrapper: each failed evaluation
// must be refunded and uncached, and only the eventual success counts.
func TestFailedEvaluationNeverCachedAndRefunded(t *testing.T) {
	var calls atomic.Int64
	sys := &pipeline.TryFunc{SystemName: "flaky", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		if calls.Add(1) <= 2 {
			return pipeline.ScoreResult{
				Score:     math.NaN(),
				Err:       pipeline.ErrTransient,
				Transient: true,
				Attempts:  1,
			}
		}
		return pipeline.ScoreResult{Score: 0.3, Attempts: 1}
	}}
	ev := New(sys, Config{MaxInterventions: 10})
	d := flagData(0.0)
	for i := 0; i < 2; i++ {
		if _, err := ev.Score(context.Background(), d); !errors.Is(err, pipeline.ErrTransient) {
			t.Fatalf("attempt %d: err = %v, want ErrTransient", i, err)
		}
	}
	if s, err := ev.Score(context.Background(), d); err != nil || s != 0.3 {
		t.Fatalf("third attempt = %v, %v", s, err)
	}
	st := ev.Stats()
	if st.Interventions != 1 {
		t.Fatalf("interventions = %d, want 1 (failed attempts refunded)", st.Interventions)
	}
	if st.TransientFailures != 2 {
		t.Fatalf("transient failures = %d, want 2", st.TransientFailures)
	}
	// The success is now cached; no further oracle call.
	if s, err := ev.Score(context.Background(), d); err != nil || s != 0.3 {
		t.Fatalf("cached = %v, %v", s, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("raw calls = %d, want 3", calls.Load())
	}
}

// TestBaselineGate: Baseline used to bypass the deadline/context gate and
// run the oracle anyway; it must refuse like every other path.
func TestBaselineGate(t *testing.T) {
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{})
	if _, err := ev.Baseline(expired(t), flagData(0.5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if sys.evals.Load() != 0 {
		t.Fatal("baseline ran the oracle past the deadline")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev2 := New(pipeline.AsFallible(&valueSystem{}), Config{})
	if _, err := ev2.Baseline(ctx, flagData(0.5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestBaselineFailureUncached: a failed baseline measurement must not poison
// the cache either.
func TestBaselineFailureUncached(t *testing.T) {
	var calls atomic.Int64
	sys := &pipeline.TryFunc{SystemName: "flaky-baseline", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		if calls.Add(1) == 1 {
			return pipeline.ScoreResult{Score: math.NaN(), Err: pipeline.ErrTransient, Transient: true, Attempts: 1}
		}
		return pipeline.ScoreResult{Score: 0.7, Attempts: 1}
	}}
	ev := New(sys, Config{})
	d := flagData(0.0)
	if _, err := ev.Baseline(context.Background(), d); err == nil {
		t.Fatal("first baseline should fail")
	}
	if s, err := ev.Baseline(context.Background(), d); err != nil || s != 0.7 {
		t.Fatalf("second baseline = %v, %v", s, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("raw calls = %d, want 2", calls.Load())
	}
}

// TestRetryAndTripCountersFlowIntoStats drives the full wrapper chain —
// injector under retry under the engine — and checks the engine's
// Retries/TransientFailures/BreakerTrips accounting.
func TestRetryAndTripCountersFlowIntoStats(t *testing.T) {
	inner := pipeline.AsFallible(pipeline.AsContext(&pipeline.Func{
		SystemName: "value",
		Score:      func(d *dataset.Dataset) float64 { return d.Num("x", 0) },
	}))
	fi := &pipeline.FaultInjector{System: inner, FailFirst: 1}
	retry := &pipeline.Retry{System: fi, Max: 3, BaseDelay: time.Millisecond}
	ev := New(retry, Config{Workers: 4, MaxInterventions: 10})

	ds := []*dataset.Dataset{flagData(0.1), flagData(0.2), flagData(0.3)}
	scores, err := ev.EvalBatch(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.1, 0.2, 0.3} {
		if scores[i] != want {
			t.Fatalf("scores = %v", scores)
		}
	}
	st := ev.Stats()
	if st.Interventions != 3 {
		t.Fatalf("interventions = %d, want 3 (retried evaluations count once)", st.Interventions)
	}
	if st.Retries != 3 {
		t.Fatalf("retries = %d, want 3 (one injected failure per dataset)", st.Retries)
	}
	if st.TransientFailures != 0 {
		t.Fatalf("transient failures = %d, want 0 (all retried to success)", st.TransientFailures)
	}
}

// TestBreakerOpenSurfacedAndRefunded: once the breaker opens, evaluations
// fail fast with a Fatal error, consume no budget, and count no failures.
func TestBreakerOpenSurfacedAndRefunded(t *testing.T) {
	dead := &pipeline.TryFunc{SystemName: "dead", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		return pipeline.ScoreResult{Score: math.NaN(), Err: pipeline.ErrTransient, Transient: true, Attempts: 1}
	}}
	br := &pipeline.Breaker{System: dead, FailureThreshold: 1, Cooldown: time.Hour}
	ev := New(br, Config{MaxInterventions: 10})
	d := flagData(0.0)

	if _, err := ev.Score(context.Background(), d); !errors.Is(err, pipeline.ErrTransient) {
		t.Fatalf("first score err = %v", err)
	}
	_, err := ev.Score(context.Background(), flagData(1.0))
	if !errors.Is(err, pipeline.ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if !Fatal(err) {
		t.Fatal("ErrBreakerOpen must be Fatal for searches")
	}
	st := ev.Stats()
	if st.Interventions != 0 {
		t.Fatalf("interventions = %d, want 0", st.Interventions)
	}
	if st.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", st.BreakerTrips)
	}
	if st.TransientFailures != 1 {
		t.Fatalf("transient failures = %d, want 1 (the rejection itself is not a failure)", st.TransientFailures)
	}

	// A whole batch rejected by the breaker surfaces ErrBreakerOpen as the
	// batch error.
	_, errs, batchErr := ev.EvalBatchErrs(context.Background(), []*dataset.Dataset{flagData(2), flagData(3)})
	if !errors.Is(batchErr, pipeline.ErrBreakerOpen) {
		t.Fatalf("batch err = %v, want ErrBreakerOpen", batchErr)
	}
	for i, e := range errs {
		if !errors.Is(e, pipeline.ErrBreakerOpen) {
			t.Fatalf("slot %d err = %v", i, e)
		}
	}
}

// TestDeterministicCrashScoreIsCachedAndCounted: a scorer crash on the input
// is a real (extreme) score — cacheable, counted, and flagged in stats.
func TestDeterministicCrashScoreIsCachedAndCounted(t *testing.T) {
	var calls atomic.Int64
	sys := &pipeline.TryFunc{SystemName: "crasher", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		calls.Add(1)
		return pipeline.ScoreResult{Score: 1, Deterministic: true, Attempts: 1}
	}}
	ev := New(sys, Config{MaxInterventions: 5})
	d := flagData(0.0)
	if s, err := ev.Score(context.Background(), d); err != nil || s != 1 {
		t.Fatalf("crash score = %v, %v", s, err)
	}
	if s, err := ev.Score(context.Background(), d); err != nil || s != 1 {
		t.Fatalf("cached crash score = %v, %v", s, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("raw calls = %d, want 1 (deterministic crash is cacheable)", calls.Load())
	}
	st := ev.Stats()
	if st.Interventions != 1 || st.DeterministicFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
