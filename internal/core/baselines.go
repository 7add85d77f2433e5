package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// ExplainBugDocPVTsContext runs the BugDoc baseline [51] on a
// discriminative PVT set, treating each PVT as a binary pipeline parameter
// (transformation applied or not). A sampling phase of ~2·log₂|X| random
// on/off configurations narrows the candidates to those enabled in every
// passing configuration, and a linear shrink then verifies each remaining
// candidate's necessity, so its interventions grow linearly with the
// candidates. The sampling phase's configurations are generated serially
// (fixed rng order) and scored as one engine batch; the shrink phase is
// inherently sequential.
//
// It returns ErrNoExplanation (with the partial Result) when no
// configuration passes, and a fatal evaluation error, such as the context's,
// with the partial Result.
func (e *Explainer) ExplainBugDocPVTsContext(ctx context.Context, pvts []*PVT, fail *dataset.Dataset) (*Result, error) {
	return e.run(ctx, pvts, fail, bugDocStream, (*search).bugDoc)
}

func (s *search) bugDoc() error {
	ctx, ev, pvts, fail, rng, res, tau := s.ctx, s.ev, s.pvts, s.fail, s.rng, s.res, s.e.Tau
	k := len(pvts)
	if k == 0 {
		return ErrNoExplanation
	}

	var ctxErr error
	// eval scores one configuration through the engine; ok is false when
	// the budget is exhausted (further evaluation is pointless), and fatal
	// errors — cancellation, deadline, an open circuit breaker — are latched
	// for the caller. A transient measurement failure leaves the
	// configuration unscored (+Inf, treated as failing) without ending the
	// search.
	eval := func(on []bool) (float64, bool) {
		d := ComposeAll(fail, pvtsAt(pvts, onIDs(on)), nil, rng)
		sc, err := ev.Score(ctx, d)
		if err != nil {
			if errors.Is(err, engine.ErrBudgetExhausted) {
				return 1, false
			}
			if engine.Fatal(err) {
				if ctxErr == nil {
					ctxErr = err
				}
				return 1, false
			}
			return math.Inf(1), true
		}
		res.Trace = append(res.Trace, Step{PVTs: onIDs(on), Transform: "bugdoc config", Score: sc, Accepted: sc <= tau})
		return sc, true
	}

	// All-on configuration. Some transformations can be actively harmful
	// (the A3-violating PVTs of the cardio case study), so a failing
	// all-on configuration does not end the search — the sampling phase
	// can still find passing configurations that avoid the harmful PVTs.
	allOn := make([]bool, k)
	for i := range allOn {
		allOn[i] = true
	}
	var bestPassing []bool
	if sc, ok := eval(allOn); ok && sc <= tau {
		bestPassing = append([]bool(nil), allOn...)
	}

	// Sampling phase: random configurations, tracking which PVTs are on in
	// every passing configuration. The configurations are generated and
	// applied up front in rng order, then scored as one batch.
	inAllPassing := make([]bool, k)
	copy(inAllPassing, allOn)
	rounds := 2 * ceilLog2(k)
	if bestPassing == nil {
		rounds += 8 // extra exploration when the full repair is harmful
	}
	if ctxErr == nil {
		configs := make([][]bool, rounds)
		cands := make([]*dataset.Dataset, rounds)
		for r := 0; r < rounds; r++ {
			on := make([]bool, k)
			for i := range on {
				on[i] = rng.Float64() < 0.5
			}
			configs[r] = on
			cands[r] = ComposeAll(fail, pvtsAt(pvts, onIDs(on)), nil, rng)
		}
		scores, evalErr := ev.EvalBatch(ctx, cands)
		for r, sc := range scores {
			if math.IsNaN(sc) {
				continue
			}
			on := configs[r]
			res.Trace = append(res.Trace, Step{PVTs: onIDs(on), Transform: "bugdoc config", Score: sc, Accepted: sc <= tau})
			if sc <= tau {
				if bestPassing == nil || len(onIDs(on)) < len(onIDs(bestPassing)) {
					bestPassing = append([]bool(nil), on...)
				}
				for i := range inAllPassing {
					inAllPassing[i] = inAllPassing[i] && on[i]
				}
			}
		}
		if evalErr != nil && !errors.Is(evalErr, engine.ErrBudgetExhausted) {
			ctxErr = evalErr
		}
	}
	if ctxErr != nil {
		return ctxErr
	}
	if bestPassing == nil {
		return ErrNoExplanation
	}

	// Shrink phase: verify each surviving candidate's necessity linearly.
	current := make([]bool, k)
	copy(current, inAllPassing)
	// The surviving intersection must itself pass; if sampling over-pruned,
	// fall back to the smallest passing configuration seen.
	if sc, ok := eval(current); !ok || sc > tau {
		copy(current, bestPassing)
	}
	for i := 0; i < k && ctxErr == nil; i++ {
		if !current[i] {
			continue
		}
		current[i] = false
		sc, ok := eval(current)
		if !ok {
			current[i] = true
			break
		}
		if sc > tau {
			current[i] = true
		}
	}
	if ctxErr != nil {
		return ctxErr
	}

	expl := pvtsAt(pvts, onIDs(current))
	final := ComposeAll(fail, expl, nil, rng)
	fs, err := ev.Baseline(ctx, final)
	if err != nil {
		if engine.Fatal(err) {
			return err
		}
		return ErrNoExplanation
	}
	res.FinalScore = fs
	if fs > tau {
		return ErrNoExplanation
	}
	res.Explanation = expl
	res.Found = true
	res.Transformed = final
	return nil
}

// onIDs returns the candidate indices a configuration enables, in order;
// pvtsAt(pvts, onIDs(on)) are the PVTs it switches on.
func onIDs(on []bool) []int {
	var out []int
	for i, b := range on {
		if b {
			out = append(out, i)
		}
	}
	return out
}

func ceilLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// ExplainAnchorPVTsContext runs the Anchor baseline [62] on a
// discriminative PVT set: it learns a surrogate rule ("repairing these PVTs
// anchors the pipeline to pass") by local perturbation. Starting from the
// empty rule it greedily adds the PVT whose inclusion maximizes the
// rule's estimated precision — the fraction of perturbed configurations
// (rule PVTs forced repaired, the rest repaired at random) on which the
// system passes. Every perturbation sample costs one intervention, which
// is why Anchor requires orders of magnitude more interventions than
// DataPrism. Each rule's perturbation samples are generated serially
// (fixed rng order) and scored as one engine batch.
//
// It returns ErrNoExplanation (with the partial Result) when the budget
// runs out or no rule of up to eight PVTs passes, and a fatal evaluation
// error, such as the context's, with the partial Result.
func (e *Explainer) ExplainAnchorPVTsContext(ctx context.Context, pvts []*PVT, fail *dataset.Dataset) (*Result, error) {
	return e.run(ctx, pvts, fail, anchorStream, (*search).anchor)
}

func (s *search) anchor() error {
	ctx, ev, pvts, fail, rng, res, tau := s.ctx, s.ev, s.pvts, s.fail, s.rng, s.res, s.e.Tau
	k := len(pvts)
	if k == 0 {
		return ErrNoExplanation
	}

	// Sampling budget per candidate, scaled down for large candidate sets.
	samples := 50
	if k > 10 {
		samples = 150/k + 2
	}
	const precisionTarget = 0.95

	var ctxErr error
	sampleRule := func(rule map[int]bool) (passFrac float64, exhausted bool) {
		cands := make([]*dataset.Dataset, samples)
		for i := 0; i < samples; i++ {
			on := make([]bool, k)
			for j := range on {
				on[j] = rule[j] || rng.Float64() < 0.5
			}
			cands[i] = ComposeAll(fail, pvtsAt(pvts, onIDs(on)), nil, rng)
		}
		scores, err := ev.EvalBatch(ctx, cands)
		passes := 0
		for _, sc := range scores {
			if !math.IsNaN(sc) && sc <= tau {
				passes++
			}
		}
		if err != nil {
			if !errors.Is(err, engine.ErrBudgetExhausted) && ctxErr == nil {
				ctxErr = err
			}
			return 0, true
		}
		return float64(passes) / float64(samples), false
	}

	// verify repairs exactly the rule's PVTs and scores the result. Fatal
	// errors are latched; a transient measurement failure or an exhausted
	// budget just leaves the rule unverified (+Inf).
	verify := func(rule map[int]bool) (*dataset.Dataset, float64) {
		on := make([]bool, k)
		for i := range on {
			on[i] = rule[i]
		}
		d := ComposeAll(fail, pvtsAt(pvts, onIDs(on)), nil, rng)
		sc, err := ev.Score(ctx, d)
		if err != nil {
			if engine.Fatal(err) && ctxErr == nil {
				ctxErr = err
			}
			return d, math.Inf(1)
		}
		return d, sc
	}

	rule := make(map[int]bool)
	var final *dataset.Dataset
	finalScore := res.InitialScore
	for len(rule) < k && len(rule) < 8 {
		bestPVT, bestPrec := -1, -1.0
		for i := 0; i < k; i++ {
			if rule[i] {
				continue
			}
			rule[i] = true
			prec, exhausted := sampleRule(rule)
			delete(rule, i)
			if exhausted {
				if ctxErr != nil {
					return ctxErr
				}
				return ErrNoExplanation
			}
			if prec > bestPrec {
				bestPrec, bestPVT = prec, i
			}
		}
		if bestPVT < 0 {
			break
		}
		rule[bestPVT] = true
		res.Trace = append(res.Trace, Step{
			PVTs:      []int{bestPVT},
			Transform: "anchor extend",
			Score:     1 - bestPrec,
			Accepted:  bestPrec >= precisionTarget,
		})
		// Deterministic check of the extended rule: precision estimates are
		// noisy, so the anchor is accepted only once its exact repair passes.
		final, finalScore = verify(rule)
		if ctxErr != nil {
			return ctxErr
		}
		if finalScore <= tau {
			break
		}
	}

	res.FinalScore = finalScore
	if final == nil || finalScore > tau {
		return ErrNoExplanation
	}
	for i := 0; i < k; i++ {
		if rule[i] {
			res.Explanation = append(res.Explanation, pvts[i])
		}
	}
	res.Found = true
	res.Transformed = final
	return nil
}
