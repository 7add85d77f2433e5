// Package baselines implements the comparison techniques of the paper's
// evaluation, adapted to PVT interventions exactly as Section 5 describes:
//
//   - BugDoc [51]: treats each PVT as a binary pipeline parameter
//     (transformation applied / not applied) and explores parameter
//     configurations with a random sampling phase followed by a linear
//     shrink — its intervention count grows linearly with the candidate
//     count.
//   - Anchor [62]: learns a surrogate rule ("repairing these PVTs anchors
//     the pipeline to pass") from many local perturbations, each of which
//     costs one intervention — by far the most intervention-hungry
//     technique, as in the paper.
//   - GrpTest [21]: adaptive group testing with random bisection; provided
//     by core.Explainer's RandomBisection flag and re-exported here for a
//     uniform interface.
//
// Each baseline is one context-first run over a candidate PVT set:
// BugDocContext, AnchorContext and GrpTestContext.
//
// All baselines consume the same discriminative PVT candidates and
// evaluate through the same intervention engine as DataPrism — one
// error-aware oracle, worker pool, memo cache, and budget — so
// intervention counts are directly comparable. Configuration generation
// and application stay on the caller's goroutine in a fixed rng order;
// only the pure scoring step is batched, so results are identical for any
// worker count.
package baselines

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// Config parameterizes a baseline run.
type Config struct {
	// System is the black box under debugging.
	System pipeline.System
	// Tau is the allowable malfunction threshold.
	Tau float64
	// Seed drives the randomized exploration.
	Seed int64
	// MaxInterventions caps oracle calls (default 100000).
	MaxInterventions int
}

func (c *Config) maxInterventions() int {
	if c.MaxInterventions == 0 {
		return 100000
	}
	return c.MaxInterventions
}

// newEval builds the evaluation substrate for one baseline run over the
// configured system, with the engine's default worker count.
func (c *Config) newEval() (*engine.Eval, error) {
	if c.System == nil {
		return nil, errors.New("baselines: Config requires a System")
	}
	return engine.New(pipeline.AsFallible(pipeline.AsContext(c.System)), engine.Config{
		MaxInterventions: c.maxInterventions(),
	}), nil
}

// finish stamps the engine's counters and the wall clock onto the result.
func finish(res *core.Result, ev *engine.Eval, start time.Time) {
	res.Stats = ev.Stats()
	res.Interventions = res.Stats.Interventions
	res.Runtime = time.Since(start)
}

// enabled returns the PVTs a configuration switches on, in candidate order.
func enabled(pvts []*core.PVT, on []bool) []*core.PVT {
	var out []*core.PVT
	for i, p := range pvts {
		if on[i] {
			out = append(out, p)
		}
	}
	return out
}

// BugDocContext explores on/off configurations of the candidate PVTs: a
// sampling phase of ~2·log₂|X| random configurations narrows the
// candidates to those enabled in every passing configuration, and a linear
// shrink then verifies each remaining candidate's necessity. The sampling
// phase's configurations are generated serially (fixed rng order) and
// scored as one engine batch; the shrink phase is inherently sequential.
func BugDocContext(ctx context.Context, cfg Config, pvts []*core.PVT, fail *dataset.Dataset) (*core.Result, error) {
	start := time.Now()
	ev, err := cfg.newEval()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	res := &core.Result{Discriminative: len(pvts), Candidates: pvts}
	res.InitialScore, err = ev.Baseline(ctx, fail)
	if err != nil {
		finish(res, ev, start)
		return res, err
	}
	res.FinalScore = res.InitialScore
	if res.InitialScore <= cfg.Tau {
		res.Found = true
		res.Transformed = fail.Clone()
		finish(res, ev, start)
		return res, nil
	}
	k := len(pvts)
	if k == 0 {
		finish(res, ev, start)
		return res, core.ErrNoExplanation
	}

	var ctxErr error
	// eval scores one configuration through the engine; ok is false when
	// the budget is exhausted (further evaluation is pointless), and fatal
	// errors — cancellation, deadline, an open circuit breaker — are latched
	// for the caller. A transient measurement failure leaves the
	// configuration unscored (+Inf, treated as failing) without ending the
	// search.
	eval := func(on []bool) (float64, bool) {
		d := core.ComposeAll(fail, enabled(pvts, on), nil, rng)
		s, err := ev.Score(ctx, d)
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
		res.Trace = append(res.Trace, core.Step{PVTs: onIDs(on), Transform: "bugdoc config", Score: s, Accepted: s <= cfg.Tau})
		return s, true
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
	if s, ok := eval(allOn); ok && s <= cfg.Tau {
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
			cands[r] = core.ComposeAll(fail, enabled(pvts, on), nil, rng)
		}
		scores, evalErr := ev.EvalBatch(ctx, cands)
		for r, s := range scores {
			if math.IsNaN(s) {
				continue
			}
			on := configs[r]
			res.Trace = append(res.Trace, core.Step{PVTs: onIDs(on), Transform: "bugdoc config", Score: s, Accepted: s <= cfg.Tau})
			if s <= cfg.Tau {
				if bestPassing == nil || count(on) < count(bestPassing) {
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
		finish(res, ev, start)
		return res, ctxErr
	}
	if bestPassing == nil {
		res.FinalScore = res.InitialScore
		finish(res, ev, start)
		return res, core.ErrNoExplanation
	}

	// Shrink phase: verify each surviving candidate's necessity linearly.
	current := make([]bool, k)
	copy(current, inAllPassing)
	// The surviving intersection must itself pass; if sampling over-pruned,
	// fall back to the smallest passing configuration seen.
	if s, ok := eval(current); !ok || s > cfg.Tau {
		copy(current, bestPassing)
	}
	for i := 0; i < k && ctxErr == nil; i++ {
		if !current[i] {
			continue
		}
		current[i] = false
		s, ok := eval(current)
		if !ok {
			current[i] = true
			break
		}
		if s > cfg.Tau {
			current[i] = true
		}
	}
	if ctxErr != nil {
		finish(res, ev, start)
		return res, ctxErr
	}

	expl := enabled(pvts, current)
	final := core.ComposeAll(fail, expl, nil, rng)
	res.FinalScore, err = ev.Baseline(ctx, final)
	if err != nil {
		res.FinalScore = res.InitialScore
		finish(res, ev, start)
		if engine.Fatal(err) {
			return res, err
		}
		return res, core.ErrNoExplanation
	}
	if res.FinalScore > cfg.Tau {
		finish(res, ev, start)
		return res, core.ErrNoExplanation
	}
	res.Explanation = expl
	res.Found = true
	res.Transformed = final
	finish(res, ev, start)
	return res, nil
}

// onIDs returns the candidate indices a configuration enables.
func onIDs(on []bool) []int {
	var out []int
	for i, b := range on {
		if b {
			out = append(out, i)
		}
	}
	return out
}

func count(on []bool) int {
	n := 0
	for _, b := range on {
		if b {
			n++
		}
	}
	return n
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

// AnchorContext learns a surrogate rule by local perturbation: starting
// from the empty rule it greedily adds the PVT whose inclusion maximizes
// the rule's estimated precision — the fraction of perturbed
// configurations (rule PVTs forced repaired, the rest repaired at random)
// on which the system passes. Every perturbation sample costs one
// intervention, which is why Anchor requires orders of magnitude more
// interventions than DataPrism. Each rule's perturbation samples are
// generated serially (fixed rng order) and scored as one engine batch.
func AnchorContext(ctx context.Context, cfg Config, pvts []*core.PVT, fail *dataset.Dataset) (*core.Result, error) {
	start := time.Now()
	ev, err := cfg.newEval()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 202))
	res := &core.Result{Discriminative: len(pvts), Candidates: pvts}
	res.InitialScore, err = ev.Baseline(ctx, fail)
	if err != nil {
		finish(res, ev, start)
		return res, err
	}
	res.FinalScore = res.InitialScore
	if res.InitialScore <= cfg.Tau {
		res.Found = true
		res.Transformed = fail.Clone()
		finish(res, ev, start)
		return res, nil
	}
	k := len(pvts)
	if k == 0 {
		finish(res, ev, start)
		return res, core.ErrNoExplanation
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
		for s := 0; s < samples; s++ {
			on := make([]bool, k)
			for i := range on {
				on[i] = rule[i] || rng.Float64() < 0.5
			}
			cands[s] = core.ComposeAll(fail, enabled(pvts, on), nil, rng)
		}
		scores, err := ev.EvalBatch(ctx, cands)
		passes := 0
		for _, sc := range scores {
			if !math.IsNaN(sc) && sc <= cfg.Tau {
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
		d := core.ComposeAll(fail, enabled(pvts, on), nil, rng)
		s, err := ev.Score(ctx, d)
		if err != nil {
			if engine.Fatal(err) && ctxErr == nil {
				ctxErr = err
			}
			return d, math.Inf(1)
		}
		return d, s
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
				finish(res, ev, start)
				if ctxErr != nil {
					return res, ctxErr
				}
				return res, core.ErrNoExplanation
			}
			if prec > bestPrec {
				bestPrec, bestPVT = prec, i
			}
		}
		if bestPVT < 0 {
			break
		}
		rule[bestPVT] = true
		res.Trace = append(res.Trace, core.Step{
			PVTs:      []int{bestPVT},
			Transform: "anchor extend",
			Score:     1 - bestPrec,
			Accepted:  bestPrec >= precisionTarget,
		})
		// Deterministic check of the extended rule: precision estimates are
		// noisy, so the anchor is accepted only once its exact repair passes.
		final, finalScore = verify(rule)
		if ctxErr != nil {
			finish(res, ev, start)
			return res, ctxErr
		}
		if finalScore <= cfg.Tau {
			break
		}
	}

	res.FinalScore = finalScore
	if final == nil || finalScore > cfg.Tau {
		finish(res, ev, start)
		return res, core.ErrNoExplanation
	}
	for i := 0; i < k; i++ {
		if rule[i] {
			res.Explanation = append(res.Explanation, pvts[i])
		}
	}
	res.Found = true
	res.Transformed = final
	finish(res, ev, start)
	return res, nil
}

// GrpTestContext is the traditional adaptive group-testing baseline:
// DataPrismGT with uniformly random bisection instead of the
// PVT-dependency min-cut.
func GrpTestContext(ctx context.Context, cfg Config, pvts []*core.PVT, fail *dataset.Dataset) (*core.Result, error) {
	e := &core.Explainer{
		System:           cfg.System,
		Tau:              cfg.Tau,
		Seed:             cfg.Seed,
		MaxInterventions: cfg.maxInterventions(),
		RandomBisection:  true,
	}
	return e.ExplainGroupTestPVTsContext(ctx, pvts, fail)
}
