package core

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// ExplainWithDecisionTreePVTsContext implements the Appendix B extension
// (Algorithm 5) for settings where assumption A2 fails — interventions on
// single PVTs do not reduce malfunction, only certain conjunctions do. It
// leverages multiple passing and failing datasets: a decision tree is
// fitted over binary violation features (one per candidate PVT in pvts)
// with the pass/fail outcome as the label; each root-to-pure-pass-leaf path
// yields a candidate conjunction of PVTs whose joint repair is then
// verified by intervention on the failing dataset. Failed candidates are
// added as new training instances and the tree is rebuilt (Algorithm 5's
// update loop).
//
// examples are the known datasets (typically at least one passing and one
// failing), labeled through the engine like any other evaluation; fail is
// the failing dataset to explain. Candidates builds pvts from a passing
// example and fail. When the budget runs out during Make-Minimal, it
// returns the explanation with an error wrapping engine.ErrBudgetExhausted
// (see Result.Explanation).
func (e *Explainer) ExplainWithDecisionTreePVTsContext(ctx context.Context, pvts []*PVT, examples []*dataset.Dataset, fail *dataset.Dataset) (*Result, error) {
	return e.run(ctx, pvts, fail, dataPrismStream, func(s *search) error { return s.decisionTree(examples) })
}

// decisionTree is Algorithm 5's exploration over the labeled examples.
func (s *search) decisionTree(examples []*dataset.Dataset) error {
	pvts := s.pvts
	if len(pvts) == 0 {
		return ErrNoExplanation
	}

	// Training instances: binary violation vector + pass/fail outcome.
	featurize := func(d *dataset.Dataset) []bool {
		v := make([]bool, len(pvts))
		for i, p := range pvts {
			v[i] = p.Profile.Violation(d) > DiscriminativeEps
		}
		return v
	}
	var train []violationInstance
	for _, d := range examples {
		sc, bErr := s.ev.Baseline(s.ctx, d)
		if bErr != nil {
			if engine.Fatal(bErr) {
				return bErr
			}
			continue // unlabelable example: skip rather than mislabel
		}
		train = append(train, violationInstance{violated: featurize(d), pass: sc <= s.e.Tau})
	}
	train = append(train, violationInstance{violated: featurize(s.fail), pass: false})

	tried := make(map[string]bool)
	cov := newCoverageCache(len(pvts))
	// Algorithm 5 main loop: extract candidate conjunctions from the tree's
	// pure pass paths, verify by intervention, retrain on failures. The
	// loop is inherently sequential — each verification reshapes the tree.
	for iter := 0; iter < 16 && !s.ev.Exhausted(); iter++ {
		tree := buildViolationTree(train, len(pvts))
		paths := collectPassPaths(tree, nil)
		// Sort candidate conjunctions by total benefit on the failing
		// dataset, descending (Algorithm 5 line 3).
		sort.SliceStable(paths, func(a, b int) bool {
			return conjunctionBenefit(pvts, paths[a], s.fail, cov) > conjunctionBenefit(pvts, paths[b], s.fail, cov)
		})
		progressed := false
		for _, conj := range paths {
			if len(conj) == 0 {
				continue
			}
			key := conjKey(conj)
			if tried[key] {
				continue
			}
			tried[key] = true
			progressed = true
			dt := ComposeAll(s.fail, pvtsAt(pvts, conj), nil, s.rng)
			sc, evalErr := s.ev.Score(s.ctx, dt)
			if evalErr != nil {
				if errors.Is(evalErr, engine.ErrBudgetExhausted) {
					break
				}
				if engine.Fatal(evalErr) {
					return evalErr
				}
				continue // transient measurement failure: try the next conjunction
			}
			accepted := sc <= s.e.Tau
			s.res.Trace = append(s.res.Trace, Step{PVTs: conj, Transform: "decision-tree conjunction", Score: sc, Accepted: accepted})
			if accepted {
				return s.conclude(dt, sc, conj, nil)
			}
			// Algorithm 5 line 10: add the transformed failing instance.
			train = append(train, violationInstance{violated: featurize(dt), pass: false})
			break // rebuild the tree with the new instance
		}
		if !progressed {
			break
		}
	}
	return ErrNoExplanation
}

// conjKey canonicalizes a conjunction for the tried-set.
func conjKey(conj []int) string {
	s := append([]int(nil), conj...)
	sort.Ints(s)
	key := ""
	for _, i := range s {
		key += string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	return key
}

// conjunctionBenefit sums the benefit of a conjunction's PVTs on fail. The
// sort comparator calls this O(n log n) times against the same fail, so the
// coverage terms come from the search's cache.
func conjunctionBenefit(pvts []*PVT, conj []int, fail *dataset.Dataset, cov *coverageCache) float64 {
	total := 0.0
	for _, i := range conj {
		total += benefitCached(i, pvts[i], fail, cov)
	}
	return total
}

// violationInstance is one training point for the Appendix B tree: the
// binary violation vector of a dataset plus whether the system passed on it.
type violationInstance struct {
	violated []bool
	pass     bool
}

// vtNode is a tiny ID3 decision tree over binary violation features.
type vtNode struct {
	leaf     bool
	pass     bool // majority / pure outcome at the leaf
	pure     bool
	feature  int
	violated *vtNode // branch where feature is violated
	clean    *vtNode // branch where feature is not violated
}

// buildViolationTree fits an ID3 tree on instances with binary violation
// features and a boolean pass outcome.
func buildViolationTree(train []violationInstance, numFeatures int) *vtNode {
	used := make([]bool, numFeatures)
	return growViolationTree(train, used, 0)
}

func growViolationTree(insts []violationInstance, used []bool, depth int) *vtNode {
	passes, fails := 0, 0
	for _, in := range insts {
		if in.pass {
			passes++
		} else {
			fails++
		}
	}
	node := &vtNode{leaf: true, pass: passes >= fails, pure: passes == 0 || fails == 0}
	if node.pure || depth >= len(used) {
		return node
	}
	// Pick the feature with the highest information gain.
	entropy := func(p, f int) float64 {
		n := float64(p + f)
		if n == 0 || p == 0 || f == 0 {
			return 0
		}
		pp, pf := float64(p)/n, float64(f)/n
		return -pp*math.Log2(pp) - pf*math.Log2(pf)
	}
	base := entropy(passes, fails)
	bestGain, bestFeat := 1e-12, -1
	for j := range used {
		if used[j] {
			continue
		}
		var vp, vf, cp, cf int
		for _, in := range insts {
			if in.violated[j] {
				if in.pass {
					vp++
				} else {
					vf++
				}
			} else {
				if in.pass {
					cp++
				} else {
					cf++
				}
			}
		}
		if vp+vf == 0 || cp+cf == 0 {
			continue
		}
		n := float64(len(insts))
		cond := float64(vp+vf)/n*entropy(vp, vf) + float64(cp+cf)/n*entropy(cp, cf)
		if gain := base - cond; gain > bestGain {
			bestGain, bestFeat = gain, j
		}
	}
	if bestFeat < 0 {
		return node
	}
	var vIn, cIn []violationInstance
	for _, in := range insts {
		if in.violated[bestFeat] {
			vIn = append(vIn, in)
		} else {
			cIn = append(cIn, in)
		}
	}
	used[bestFeat] = true
	node.leaf = false
	node.feature = bestFeat
	node.violated = growViolationTree(vIn, used, depth+1)
	node.clean = growViolationTree(cIn, used, depth+1)
	used[bestFeat] = false
	return node
}

// collectPassPaths walks the tree gathering, for each pure passing leaf,
// the set of features the path requires to be NOT violated — the PVTs whose
// joint repair the path predicts will make the system pass.
func collectPassPaths(n *vtNode, required []int) [][]int {
	if n == nil {
		return nil
	}
	if n.leaf {
		if n.pure && n.pass && len(required) > 0 {
			return [][]int{append([]int(nil), required...)}
		}
		return nil
	}
	var out [][]int
	out = append(out, collectPassPaths(n.clean, append(required, n.feature))...)
	out = append(out, collectPassPaths(n.violated, required)...)
	return out
}
