package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// errNodeLost stands in for an application-specific cancel cause that does
// NOT wrap context.Canceled — exactly the shape that used to leak through
// the skip path and defeat Fatal's errors.Is classification.
var errNodeLost = errors.New("worker node lost")

// TestCancellationErrorsWrapContextCanceled is the regression test for the
// cancellation-wrapping contract: every engine path that fails because the
// caller's context was cancelled must return an error satisfying
// errors.Is(err, context.Canceled) — even when the context carries a custom
// cancel cause — and the cause must stay visible in the message and chain.
func TestCancellationErrorsWrapContextCanceled(t *testing.T) {
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{Workers: 2})
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errNodeLost)

	// gate() via Baseline: refused before any oracle call.
	if _, err := ev.Baseline(ctx, flagData(0.5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Baseline under custom cancel cause: errors.Is(err, context.Canceled) = false; err = %v", err)
	} else if !errors.Is(err, errNodeLost) {
		t.Fatalf("Baseline error lost the cancel cause: %v", err)
	}

	// Batch-level and per-slot errors from EvalBatchErrs.
	scores, errs, err := ev.EvalBatchErrs(ctx, []*dataset.Dataset{flagData(0.1), flagData(0.2)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalBatchErrs batch error: errors.Is(err, context.Canceled) = false; err = %v", err)
	}
	if !errors.Is(err, errNodeLost) {
		t.Fatalf("EvalBatchErrs batch error lost the cancel cause: %v", err)
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("slot %d error: errors.Is(err, context.Canceled) = false; err = %v", i, e)
		}
		if !strings.Contains(e.Error(), errNodeLost.Error()) {
			t.Fatalf("slot %d error hides the cancel cause: %v", i, e)
		}
	}
	for i, s := range scores {
		if s == s { // NaN check without math import noise
			t.Fatalf("slot %d returned a score %v from a cancelled batch", i, s)
		}
	}

	// Fatal must classify every one of these as a run-ending failure.
	for _, e := range append([]error{err}, errs...) {
		if !Fatal(e) {
			t.Fatalf("Fatal(%v) = false for a cancellation error", e)
		}
	}

	if got := sys.evals.Load(); got != 0 {
		t.Fatalf("cancelled-before-start batch still invoked the oracle %d times", got)
	}
}

// TestMidBatchCancellationSkipsWrapCause: slots skipped because the context
// was cancelled mid-batch (rather than before it) carry the same wrapped
// shape.
func TestMidBatchCancellationSkipsWrapCause(t *testing.T) {
	sys := &valueSystem{delay: 50 * time.Millisecond}
	ev := New(pipeline.AsFallible(sys), Config{Workers: 1})
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel(errNodeLost)
	}()
	ds := make([]*dataset.Dataset, 8)
	for i := range ds {
		ds[i] = flagData(float64(i) / 10)
	}
	_, errs, err := ev.EvalBatchErrs(ctx, ds)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, errNodeLost) {
		t.Fatalf("mid-batch cancellation batch error not wrapped: %v", err)
	}
	skipped := 0
	for _, e := range errs {
		if e == nil {
			continue
		}
		skipped++
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("skipped slot error not wrapping context.Canceled: %v", e)
		}
	}
	if skipped == 0 {
		t.Fatal("expected at least one slot to be skipped by mid-batch cancellation")
	}
}

// TestDeadlineGateWrapsDeadlineExceeded: the gate reports an expired
// context deadline through the context.DeadlineExceeded sentinel so Fatal
// and caller errors.Is checks see a deadline, not an anonymous engine error.
func TestDeadlineGateWrapsDeadlineExceeded(t *testing.T) {
	ev := New(pipeline.AsFallible(&valueSystem{}), Config{})
	_, err := ev.Baseline(expired(t), flagData(0.5))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context deadline: errors.Is(err, context.DeadlineExceeded) = false; err = %v", err)
	}
	if !Fatal(err) {
		t.Fatalf("Fatal(%v) = false for a deadline error", err)
	}
}

// TestFallibleCancellationWrapsSentinel: the pipeline-side cancellation
// classifications (AsFallible's conservative wrapper and Retry's abandoned
// backoff) keep both ErrTransient and the context sentinel in the chain.
func TestFallibleCancellationWrapsSentinel(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errNodeLost)

	fs := pipeline.AsFallible(&pipeline.CtxFunc{
		SystemName: "plain",
		Score:      func(context.Context, *dataset.Dataset) float64 { return 0 },
	})
	r := fs.TryMalfunctionScore(ctx, flagData(0.5))
	if r.Err == nil || !r.Transient {
		t.Fatalf("cancelled fallible evaluation should fail transiently, got %+v", r)
	}
	if !errors.Is(r.Err, context.Canceled) || !errors.Is(r.Err, errNodeLost) {
		t.Fatalf("fallible cancellation error not wrapped: %v", r.Err)
	}

	flaky := &pipeline.TryFunc{
		SystemName: "flaky",
		Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
			return pipeline.ScoreResult{Err: pipeline.ErrTransient, Transient: true, Attempts: 1}
		},
	}
	retry := &pipeline.Retry{System: flaky, Max: 3, BaseDelay: time.Hour}
	rctx, rcancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		rcancel(errNodeLost)
	}()
	rr := retry.TryMalfunctionScore(rctx, flagData(0.5))
	if rr.Err == nil {
		t.Fatal("retry abandoned by cancellation should return an error")
	}
	if !errors.Is(rr.Err, context.Canceled) || !errors.Is(rr.Err, errNodeLost) || !errors.Is(rr.Err, pipeline.ErrTransient) {
		t.Fatalf("abandoned retry error chain incomplete: %v", rr.Err)
	}
}
