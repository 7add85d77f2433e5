package core

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
)

// VerifyExplanationContext independently re-verifies an explanation: it
// applies the PVTs' transformations to the failing dataset (Definition 9's
// composition) and checks the malfunction drops to τ or below, and — when
// checkMinimal is set — that no proper subset suffices (Definition 11).
// It reports the number of oracle calls spent. The leave-one-out subset
// checks are independent, so they are evaluated as one engine batch.
func VerifyExplanationContext(ctx context.Context, sys pipeline.ContextSystem, tau float64, fail *dataset.Dataset, expl []*PVT, seed int64, checkMinimal bool) (ok bool, calls int) {
	ev := engine.New(pipeline.AsFallible(sys), engine.Config{})
	rng := rand.New(rand.NewSource(seed + dataPrismStream))
	composed := ComposeAll(fail, expl, nil, rng)
	s, err := ev.Score(ctx, composed)
	if err != nil || s > tau {
		return false, ev.Stats().Interventions
	}
	if !checkMinimal {
		return true, ev.Stats().Interventions
	}
	var cands []*dataset.Dataset
	for drop := range expl {
		reduced := make([]*PVT, 0, len(expl)-1)
		for i, p := range expl {
			if i != drop {
				reduced = append(reduced, p)
			}
		}
		if len(reduced) == 0 {
			continue // the empty set failing is given: fail itself scores > τ
		}
		cands = append(cands, ComposeAll(fail, reduced, nil, rng))
	}
	scores, errs, err := ev.EvalBatchErrs(ctx, cands)
	for _, sc := range scores {
		if !math.IsNaN(sc) && sc <= tau {
			return false, ev.Stats().Interventions // a subset suffices: not minimal
		}
	}
	// Minimality is only confirmed when every leave-one-out subset was
	// actually measured: an unevaluated slot could hide a sufficient subset.
	for _, slotErr := range errs {
		if slotErr != nil {
			return false, ev.Stats().Interventions
		}
	}
	return err == nil, ev.Stats().Interventions
}

// EnumerateExplanationsPVTsContext returns up to maxCount distinct minimal
// explanations among the candidate set all, an extension beyond the
// paper's "any minimal explanation" contract: after each explanation is
// found, its PVTs are removed from the candidate pool one combination at a
// time (banning one member per found explanation) and the greedy search
// reruns. Explanations are distinct as PVT sets. The search stops early
// when no further explanation exists. All greedy reruns share one
// evaluation substrate, so the overlapping prefixes of successive searches
// are served from the memo cache instead of re-querying the system.
func (e *Explainer) EnumerateExplanationsPVTsContext(ctx context.Context, all []*PVT, fail *dataset.Dataset, maxCount int) ([][]*PVT, error) {
	if len(all) == 0 {
		return nil, ErrNoExplanation
	}
	sub := *e
	if sub.eval == nil {
		ev, err := e.newEval()
		if err != nil {
			return nil, err
		}
		sub.eval = ev
	}
	var out [][]*PVT
	seen := make(map[string]bool)
	// Frontier of candidate pools to search: start with the full pool.
	type pool struct{ banned map[*PVT]bool }
	frontier := []pool{{banned: map[*PVT]bool{}}}
	for len(out) < maxCount && len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		candidates := make([]*PVT, 0, len(all))
		for _, p := range all {
			if !cur.banned[p] {
				candidates = append(candidates, p)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		res, err := sub.ExplainGreedyPVTsContext(ctx, candidates, fail)
		if err != nil {
			if errors.Is(err, ErrNoExplanation) {
				continue
			}
			return out, err
		}
		key := explanationKey(res.Explanation)
		if !seen[key] {
			seen[key] = true
			out = append(out, res.Explanation)
			// Branch: ban each member of the found explanation in turn, so
			// later searches are forced onto different explanations
			// (the classic Lawler-style enumeration scheme).
			for _, p := range res.Explanation {
				banned := make(map[*PVT]bool, len(cur.banned)+1)
				for b := range cur.banned {
					banned[b] = true
				}
				banned[p] = true
				frontier = append(frontier, pool{banned: banned})
			}
		}
	}
	if len(out) == 0 {
		return nil, ErrNoExplanation
	}
	return out, nil
}

// explanationKey canonicalizes an explanation set for deduplication.
func explanationKey(expl []*PVT) string {
	keys := make([]string, len(expl))
	for i, p := range expl {
		keys[i] = p.Profile.Key()
	}
	// insertion sort: explanation sets are tiny
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := ""
	for _, k := range keys {
		out += k + "|"
	}
	return out
}
