// Package faultinterproc is the interprocedural regression corpus for
// faultcontract: every bad* function discards the error of a score that
// reached it through an in-package forwarding helper, so only the
// summary-based analysis flags it. The (float64, error) helper that computes its own
// value locally proves score-shape alone does not trip the contract.
package faultinterproc

import (
	"context"
	"errors"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// score forwards the engine score pair: its summary marks it a score
// source.
func score(ctx context.Context, ev *engine.Eval, d *dataset.Dataset) (float64, error) {
	return ev.Score(ctx, d)
}

// rescore forwards through another score source — two hops from the
// engine.
func rescore(ctx context.Context, ev *engine.Eval, d *dataset.Dataset) (float64, error) {
	return score(ctx, ev, d)
}

// ratio is score-shaped but computes locally: not a score source.
func ratio(a, b float64) (float64, error) {
	if b == 0 {
		return 0, errors.New("division by zero")
	}
	return a / b, nil
}

func badDiscardViaHelper(ctx context.Context, ev *engine.Eval, d *dataset.Dataset, cache map[uint64]float64) {
	s, _ := score(ctx, ev, d) // want `discards the error paired with faultinterproc\.score's score`
	cache[d.Fingerprint()] = s
}

func badDiscardViaTwoHops(ctx context.Context, ev *engine.Eval, d *dataset.Dataset) float64 {
	s, _ := rescore(ctx, ev, d) // want `discards the error paired with faultinterproc\.rescore's score`
	return s
}

// goodHelperChecked: the forwarded pair is consulted before use.
func goodHelperChecked(ctx context.Context, ev *engine.Eval, d *dataset.Dataset) (float64, error) {
	s, err := score(ctx, ev, d)
	if err != nil {
		return 0, err
	}
	return s, nil
}

// goodUnrelatedDiscard: discarding the error of a locally computed
// (float64, error) pair is outside the fault contract.
func goodUnrelatedDiscard(a, b float64) float64 {
	r, _ := ratio(a, b)
	return r
}
