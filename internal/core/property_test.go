package core_test

import (
	"context"
	"errors"
	"math/rand"
	"repro/internal/pipeline"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/synth"
)

// TestExplanationsAlwaysVerifyProperty is the whole-system invariant: for
// random synthetic scenarios, whatever explanation either algorithm
// returns must pass independent verification — composition below τ and
// minimality (Definition 11).
func TestExplanationsAlwaysVerifyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := synth.Options{
			NumPVTs:  8 + rng.Intn(24),
			NumAttrs: 2 + rng.Intn(6),
			Seed:     seed,
		}
		if rng.Intn(2) == 0 {
			opts.Conjunction = 1 + rng.Intn(3)
		} else {
			opts.Disjunction = 1 + rng.Intn(3)
		}
		sc := synth.New(opts)
		const tau = 0.05

		grd := &core.Explainer{System: sc.System, Tau: tau, Seed: seed}
		res, err := grd.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			if !errors.Is(err, core.ErrNoExplanation) {
				return false
			}
		} else {
			if ok, _ := core.VerifyExplanationContext(context.Background(), pipeline.AsContext(sc.System), tau, sc.Fail, res.Explanation, seed, true); !ok {
				t.Logf("seed %d: greedy explanation %s failed verification", seed, res.ExplanationString())
				return false
			}
		}

		gt := &core.Explainer{System: sc.System, Tau: tau, Seed: seed}
		gres, gerr := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if gerr != nil {
			return errors.Is(gerr, core.ErrNoExplanation)
		}
		if ok, _ := core.VerifyExplanationContext(context.Background(), pipeline.AsContext(sc.System), tau, sc.Fail, gres.Explanation, seed, true); !ok {
			t.Logf("seed %d: GT explanation %s failed verification", seed, gres.ExplanationString())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInterventionCountsBoundedProperty: both algorithms respect their
// theoretical intervention bounds on random single-cause scenarios — GRD at
// most |X| (+ minimality checks), GT O(t log |X|) with generous constants.
func TestInterventionCountsBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 8 + rng.Intn(40)
		sc := synth.New(synth.Options{NumPVTs: k, NumAttrs: 2 + rng.Intn(6), Conjunction: 1, Seed: seed})
		const tau = 0.05

		grd := &core.Explainer{System: sc.System, Tau: tau, Seed: seed}
		res, err := grd.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			return false
		}
		// Each PVT may try up to its transform count (1 here) plus the
		// minimality drop checks (≤ |explanation|).
		if res.Interventions > k+len(res.Explanation)+1 {
			return false
		}

		gt := &core.Explainer{System: sc.System, Tau: tau, Seed: seed}
		gres, gerr := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if gerr != nil {
			return false
		}
		// 4·(⌈log2 k⌉+2) is a generous bound for a single cause.
		bound := 4 * (log2ceil(k) + 2)
		return gres.Interventions <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}
