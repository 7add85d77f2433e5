package core

import (
	"context"
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
)

// scoredDataset pairs a dataset with its (possibly not yet evaluated)
// malfunction score, so Algorithm 3's line-5 re-evaluation only costs an
// oracle call when the dataset actually changed since it was last scored.
type scoredDataset struct {
	d     *dataset.Dataset
	score float64
	known bool
}

// gtGroupState is the working state of Algorithm 3's recursion.
type gtGroupState struct {
	*search
	g   *graph.PVTAttr
	err error // first context/engine error other than budget exhaustion
}

// ExplainGroupTestPVTsContext runs DataPrismGT (Algorithm 2) on a
// discriminative PVT set — Candidates builds one from a (pass, fail) pair:
// the PVTs are recursively partitioned — by min-bisection of the
// PVT-dependency graph, or uniformly at random when RandomBisection is set
// (the paper's GrpTest baseline [21]) — and intervened on as groups
// (Algorithm 3), followed by the Make-Minimal post-pass.
//
// Group testing additionally requires assumption A3 (Section 4.4); when it
// does not hold the final composed fix may fail verification, in which case
// ErrNoExplanation is returned with the partial Result — the paper reports
// exactly this as "NA" for the cardiovascular case study. When the budget
// runs out during Make-Minimal, it returns the explanation with an error
// wrapping engine.ErrBudgetExhausted (see Result.Explanation). Cancelling
// ctx aborts the search with the context's error and a partial Result.
func (e *Explainer) ExplainGroupTestPVTsContext(ctx context.Context, pvts []*PVT, fail *dataset.Dataset) (*Result, error) {
	return e.run(ctx, pvts, fail, dataPrismStream, (*search).groupTest)
}

// groupTest is GT's exploration, lines 5–6 of Algorithm 2: the
// Group-Test recursion over the dependency graph, then the verification
// of the composed fix.
func (s *search) groupTest() error {
	st := &gtGroupState{search: s, g: buildGraph(s.pvts)}
	all := make([]int, len(s.pvts))
	for i := range all {
		all[i] = i
	}
	final, explIdx := st.run(all, &scoredDataset{d: s.fail, score: s.res.InitialScore, known: true})
	if st.err != nil {
		return st.err
	}

	// Verifying the composed fix is an intervention: when the recursion
	// ended on a singleton it applied without scoring, this is the only
	// oracle call that dataset gets, so it is counted and budgeted.
	finalScore, err := s.ev.Score(s.ctx, final.d)
	if errors.Is(err, engine.ErrBudgetExhausted) {
		err = ErrNoExplanation
	}
	if err != nil {
		return err
	}
	if finalScore > s.e.Tau {
		s.res.FinalScore = finalScore
		return ErrNoExplanation
	}
	// Algorithm 2, line 7: minimality post-pass.
	return s.conclude(final.d, finalScore, explIdx, nil)
}

// score lazily evaluates the dataset's malfunction, counting the call
// through the engine (memoized re-evaluations are free). Fatal errors —
// cancellation, deadline, an open circuit breaker — latch st.err and end
// the recursion; a transient per-slot measurement failure or an exhausted
// budget merely leaves this dataset unscored (treated as unhelpful).
func (st *gtGroupState) score(x *scoredDataset) float64 {
	if !x.known {
		s, err := st.ev.Score(st.ctx, x.d)
		if err != nil {
			if engine.Fatal(err) && st.err == nil {
				st.err = err
			}
			return math.Inf(1)
		}
		x.score, x.known = s, true
	}
	return x.score
}

// applyGroup composes the transformations of all PVTs in X onto d —
// the group intervention X_T(D) of Algorithm 3. d is never mutated.
func (st *gtGroupState) applyGroup(d *dataset.Dataset, x []int) *dataset.Dataset {
	c := compose(d)
	for _, i := range x {
		c.apply(orderTransforms(st.pvts[i], st.g), st.rng)
	}
	return c.dataset()
}

// run is Algorithm 3 (Group-Test).
func (st *gtGroupState) run(x []int, cur *scoredDataset) (*scoredDataset, []int) {
	if len(x) == 0 || st.err != nil || st.ev.Exhausted() {
		return cur, nil
	}
	// Lines 2-3: a singleton candidate is transformed and returned without
	// further evaluation; the surrounding recursion has already verified
	// that this group reduces the malfunction.
	if len(x) == 1 {
		return &scoredDataset{d: st.applyGroup(cur.d, x)}, []int{x[0]}
	}

	// Line 4: partition the candidates. Both bisections return fresh
	// slices that nothing mutates afterwards, so trace steps keep them
	// without a copy.
	var x1, x2 []int
	if st.e.RandomBisection {
		x1, x2 = graph.RandomBisection(x, st.rng)
	} else {
		x1, x2 = st.g.Bisect(x, st.rng)
	}

	// Line 5: malfunction of the entry dataset.
	m := st.score(cur)
	if st.err != nil {
		return cur, nil
	}

	// Lines 6-8, parallelized: both group interventions are composed
	// serially (deterministic rng order) and evaluated as one engine batch.
	// Algorithm 3 consults X2's score only when X1 alone is insufficient,
	// so evaluating both never changes which explanation the recursion
	// finds — it trades up to one extra counted intervention per split for
	// halved wall-clock depth on expensive systems (this subsumes the old
	// SpeculativeParallel flag; with Workers=1 the batch runs inline).
	d1 := &scoredDataset{d: st.applyGroup(cur.d, x1)}
	d2 := &scoredDataset{d: st.applyGroup(cur.d, x2)}
	scores, err := st.ev.EvalBatch(st.ctx, []*dataset.Dataset{d1.d, d2.d})
	if err != nil && !errors.Is(err, engine.ErrBudgetExhausted) && st.err == nil {
		st.err = err
	}
	s1, s2 := math.Inf(1), math.Inf(1)
	if !math.IsNaN(scores[0]) {
		d1.score, d1.known = scores[0], true
		s1 = scores[0]
		st.res.Trace = append(st.res.Trace, Step{PVTs: x1, Transform: "group", Score: s1, Accepted: s1 < m})
	}
	if !math.IsNaN(scores[1]) {
		d2.score, d2.known = scores[1], true
		s2 = scores[1]
		st.res.Trace = append(st.res.Trace, Step{PVTs: x2, Transform: "group", Score: s2, Accepted: s2 < m})
	}
	if st.err != nil {
		return cur, nil
	}

	var expl []int
	entry := cur
	// Lines 9-13: recurse into X1 when it suffices alone, or when it helps
	// while X2 alone is insufficient.
	if s1 <= st.e.Tau || (s1 < m && s2 > st.e.Tau) {
		if len(x1) == 1 {
			cur = d1 // reuse the already-applied singleton intervention
			expl = append(expl, x1[0])
		} else {
			next, e1 := st.run(x1, cur)
			cur = next
			expl = append(expl, e1...)
		}
		if s1 <= st.e.Tau {
			return cur, expl
		}
	}
	// Lines 14-16: recurse into X2 when its group intervention helped.
	if d2.known && s2 < m {
		if len(x2) == 1 && cur == entry {
			cur = d2
			expl = append(expl, x2[0])
		} else {
			next, e2 := st.run(x2, cur)
			cur = next
			expl = append(expl, e2...)
		}
	}
	return cur, expl
}
