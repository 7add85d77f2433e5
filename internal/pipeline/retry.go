package pipeline

import (
	"context"
	"errors"
	"time"

	"repro/internal/dataset"
)

// Retry wraps a FallibleSystem and re-attempts transient failures with
// exponential backoff. Deterministic failures (the scorer crashed on the
// input), permanent errors, and ErrBreakerOpen pass through immediately —
// retrying them wastes the very oracle budget the engine is protecting.
//
// Backoff for attempt k (1-based) is BaseDelay·2^(k-1) capped at 5s, with
// no jitter, so a retry schedule is the same on every run. Sleeps observe
// the context: a cancelled caller aborts the backoff immediately with a
// transient failure.
type Retry struct {
	// System is the wrapped error-aware scorer.
	System FallibleSystem
	// Max bounds total attempts per evaluation (first try included);
	// values below 1 mean the default of 3.
	Max int
	// BaseDelay is the first backoff; zero means 100ms.
	BaseDelay time.Duration
}

// maxRetryDelay caps Retry's exponential backoff.
const maxRetryDelay = 5 * time.Second

// Name implements FallibleSystem.
func (r *Retry) Name() string { return r.System.Name() }

func (r *Retry) max() int {
	if r.Max < 1 {
		return 3
	}
	return r.Max
}

func (r *Retry) baseDelay() time.Duration {
	if r.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return r.BaseDelay
}

// delay computes the backoff before attempt k+1, k completed attempts in.
func (r *Retry) delay(k int) time.Duration {
	d := r.baseDelay()
	for i := 1; i < k && d < maxRetryDelay; i++ {
		d *= 2
	}
	return min(d, maxRetryDelay)
}

// TryMalfunctionScore implements FallibleSystem: transient failures are
// retried up to Max total attempts; the returned Attempts accumulates every
// oracle invocation so the engine can report retries.
func (r *Retry) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) ScoreResult {
	attempts := 0
	for k := 1; ; k++ {
		res := r.System.TryMalfunctionScore(ctx, d)
		attempts += res.Attempts
		res.Attempts = attempts
		if res.Err == nil || !res.Transient || errors.Is(res.Err, ErrBreakerOpen) {
			return res
		}
		if k >= r.max() || ctx.Err() != nil {
			return res
		}
		timer := time.NewTimer(r.delay(k))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			// %w keeps the context sentinel in the chain: a retry abandoned
			// by cancellation must satisfy errors.Is(err, context.Canceled)
			// so the engine treats it as a fatal stop, not a skippable slot.
			res := transientResult(attempts, "retry abandoned: %w", ContextFailure(ctx))
			return res
		}
	}
}

// BreakerTrips forwards the inner chain's trip count, keeping the optional
// TripCounter capability visible when a Breaker sits below the Retry.
func (r *Retry) BreakerTrips() int {
	if tc, ok := r.System.(TripCounter); ok {
		return tc.BreakerTrips()
	}
	return 0
}
