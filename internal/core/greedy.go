package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/transform"
)

// ExplainGreedyPVTsContext runs DataPrismGRD (Algorithm 1) on a
// discriminative PVT set — Candidates builds one from a (pass, fail) pair:
// it prioritizes the PVTs by the PVT-attribute graph and the benefit score,
// intervenes one PVT at a time, and post-processes the accumulated
// explanation to a minimal one.
//
// It returns ErrNoExplanation (with the partial Result) when the candidate
// PVTs are exhausted or the intervention budget runs out before the
// malfunction score drops below τ. When the budget runs out during
// Make-Minimal, it returns the explanation with an error wrapping
// engine.ErrBudgetExhausted (see Result.Explanation). Cancelling ctx
// aborts the search promptly with the context's error and a partial
// Result.
func (e *Explainer) ExplainGreedyPVTsContext(ctx context.Context, pvts []*PVT, fail *dataset.Dataset) (*Result, error) {
	return e.run(ctx, pvts, fail, dataPrismStream, (*search).greedy)
}

// greedy is GRD's exploration, lines 5–19 of Algorithm 1.
func (s *search) greedy() error {
	e, pvts := s.e, s.pvts
	// Line 5: PVT-attribute graph. Lines 7-8: initialization.
	g := buildGraph(pvts)
	d := s.fail
	score := s.res.InitialScore
	var expl []int
	chosen := make(map[*PVT]transform.Transformation)
	cov := newCoverageCache(len(pvts))

	// Line 9: iterate until the malfunction is acceptable.
	for score > e.Tau && !s.ev.Exhausted() {
		// Line 10: PVTs adjacent to the highest-degree attributes.
		var candidates []int
		if e.DisableGraphPriority {
			candidates = g.Active()
		} else {
			candidates = g.HighestDegreePVTs()
		}
		if len(candidates) == 0 {
			break
		}
		// Line 11: highest-benefit PVT among them.
		best, bestB := -1, -1.0
		for _, i := range candidates {
			if b := e.benefit(i, pvts[i], d, s.rng, cov); b > bestB {
				bestB, best = b, i
			}
		}
		p := pvts[best]
		// Line 13: mark as explored.
		g.Remove(best)

		// Lines 12, 14-19: intervene and keep the first transformation that
		// reduces the malfunction. Transformations modifying higher-degree
		// attributes are tried first (Observation O1). The candidate outputs
		// are composed serially (deterministic rng order) and scored as one
		// engine batch; acceptance goes to the first improving candidate in
		// priority order, exactly as the sequential scan would choose.
		type probe struct {
			t   transform.Transformation
			out *dataset.Dataset
		}
		var probes []probe
		for _, t := range orderTransforms(p, g) {
			out, err := t.Apply(d, s.rng)
			if err != nil {
				continue
			}
			probes = append(probes, probe{t: t, out: out})
		}
		if len(probes) == 0 {
			continue
		}
		cands := make([]*dataset.Dataset, len(probes))
		for i := range probes {
			cands[i] = probes[i].out
		}
		scores, evalErr := s.ev.EvalBatch(s.ctx, cands)
		pick := -1
		for i, sc := range scores {
			if !math.IsNaN(sc) && sc < score {
				pick = i
				break
			}
		}
		for i, sc := range scores {
			if math.IsNaN(sc) {
				continue
			}
			s.res.Trace = append(s.res.Trace, Step{
				PVTs:      []int{best},
				Transform: probes[i].t.Name(),
				Score:     sc,
				Accepted:  i == pick,
			})
		}
		if pick >= 0 {
			d, score = probes[pick].out, scores[pick]
			chosen[p] = probes[pick].t
			expl = append(expl, best)
		}
		if evalErr != nil {
			if errors.Is(evalErr, engine.ErrBudgetExhausted) {
				break
			}
			s.res.FinalScore = score
			return evalErr
		}
	}

	if score > e.Tau {
		s.res.FinalScore = score
		return ErrNoExplanation
	}
	// Line 20: minimality post-pass.
	return s.conclude(d, score, expl, chosen)
}
