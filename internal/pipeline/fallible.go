package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// ErrTransient marks a measurement failure that might succeed on retry: a
// timeout, an exec/fork failure, a cancelled context, truncated output. It is
// always wrapped, never returned bare — match with errors.Is.
var ErrTransient = errors.New("pipeline: transient evaluation failure")

// ScoreResult is the outcome of one error-aware malfunction evaluation.
//
// Exactly one of two shapes is valid:
//
//   - Err == nil: Score holds a trustworthy malfunction score. When
//     Deterministic is additionally set, the score is the extreme
//     malfunction 1 produced by a data-deterministic failure — the system
//     crashed on this input (the paper's "crash on invalid input
//     combination" failure class) — rather than by a well-behaved scorer.
//   - Err != nil: no score was produced (Score is NaN). Transient reports
//     whether retrying the same evaluation may succeed (timeout, fork
//     failure, cancellation, truncated output) or is pointless
//     (misconfiguration, open circuit breaker).
//
// Attempts counts the oracle invocations consumed producing this result;
// wrappers like Retry accumulate it so the engine can account retries
// separately from interventions.
type ScoreResult struct {
	Score         float64
	Err           error
	Transient     bool
	Deterministic bool
	Attempts      int
}

// FallibleSystem is the error-aware form of ContextSystem: an evaluation
// either produces a trustworthy score or reports *why* it could not, so
// callers can distinguish "the system malfunctions on this data" from "the
// measurement itself failed". Collapsing the two — as a plain score-1-on-
// anything oracle does — lets one flaky scorer run poison memo caches and
// causal conclusions.
type FallibleSystem interface {
	// Name identifies the system in reports.
	Name() string
	// TryMalfunctionScore evaluates d, observing ctx where possible.
	TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) ScoreResult
}

// TryFunc adapts a plain function into a FallibleSystem.
type TryFunc struct {
	SystemName string
	Try        func(ctx context.Context, d *dataset.Dataset) ScoreResult
}

// Name implements FallibleSystem.
func (f *TryFunc) Name() string { return f.SystemName }

// TryMalfunctionScore implements FallibleSystem.
func (f *TryFunc) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) ScoreResult {
	return f.Try(ctx, d)
}

// transientResult builds a failed ScoreResult wrapping ErrTransient.
func transientResult(attempts int, format string, args ...any) ScoreResult {
	return ScoreResult{
		Score:     math.NaN(),
		Err:       fmt.Errorf(format+": %w", append(args, ErrTransient)...),
		Transient: true,
		Attempts:  attempts,
	}
}

// AsFallible adapts a context-aware system to the error-aware contract.
// Systems that already implement FallibleSystem keep their own failure
// classification. Plain scorers are wrapped conservatively: a score
// computed under a cancelled context is discarded as a transient failure
// rather than trusted — the score may be a cancellation artifact, and
// caching such an artifact poisons every later lookup.
func AsFallible(sys ContextSystem) FallibleSystem {
	if f, ok := sys.(FallibleSystem); ok {
		return f
	}
	return &TryFunc{
		SystemName: sys.Name(),
		Try: func(ctx context.Context, d *dataset.Dataset) ScoreResult {
			if err := ctx.Err(); err != nil {
				return transientResult(0, "not evaluated: %w", ContextFailure(ctx))
			}
			s := sys.MalfunctionScore(ctx, d)
			if err := ctx.Err(); err != nil {
				return transientResult(1, "cancelled mid-evaluation: %w", ContextFailure(ctx))
			}
			return ScoreResult{Score: s, Attempts: 1}
		},
	}
}

// TripCounter is the optional capability a FallibleSystem (or a wrapper
// chain containing a Breaker) implements to report how many times its
// circuit breaker has opened. The engine snapshots it into Stats.
type TripCounter interface {
	BreakerTrips() int
}
