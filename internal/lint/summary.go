package lint

import (
	"go/types"

	"repro/internal/lint/analysis"
)

// This file is the interprocedural layer shared by cowmutate and
// faultcontract: per-function summaries describing how taint and score
// errors flow through a function's boundary, propagated bottom-up over the
// SCCs of the intra-package call graph. With summaries in hand, the
// per-function taint walk can see through helper indirection — a helper that
// returns a shared chunk slice, writes through its parameter, forwards a
// parameter alias to its return value, or forwards an engine (score, error)
// pair is no longer a laundering point.

// taintVal describes what a value may alias: a dataset read accessor it
// (transitively) derives from, and/or parameters of the enclosing function.
type taintVal struct {
	src    string       // accessor name ("" when not accessor-derived)
	params map[int]bool // parameter indices the value may alias
}

func (t taintVal) empty() bool { return t.src == "" && len(t.params) == 0 }

// mergeTaint unions two taint values; a's accessor wins when both are set
// (first derivation encountered, deterministic under AST order).
func mergeTaint(a, b taintVal) taintVal {
	if a.src == "" {
		a.src = b.src
	}
	if len(b.params) > 0 {
		if a.params == nil {
			a.params = make(map[int]bool, len(b.params))
		}
		for p := range b.params {
			a.params[p] = true
		}
	}
	return a
}

// funcSummary is the converged boundary behavior of one declared function.
type funcSummary struct {
	// returnTaint[i] names the dataset accessor result i may alias ("" when
	// it never does).
	returnTaint []string
	// returnParams[i] holds the parameter indices result i may alias — a
	// helper like func head(s []float64) []float64 { return s[:1] } has
	// returnParams[0] = {0}.
	returnParams []map[int]bool
	// mutatesParam[i] reports whether the function writes through parameter
	// i (element stores, copy-into, append-to, in-place sorts, or passing it
	// on to another mutating helper).
	mutatesParam []bool
	// scoreShaped reports whether the signature returns exactly
	// (float64, error) — the engine/pipeline score shape.
	scoreShaped bool
	// scoreSource reports whether the function forwards an engine/pipeline
	// score pair (directly or through another score source), making its own
	// (float64, error) return subject to the fault contract.
	scoreSource bool
}

func newFuncSummary(sig *types.Signature) *funcSummary {
	s := &funcSummary{
		returnTaint:  make([]string, sig.Results().Len()),
		returnParams: make([]map[int]bool, sig.Results().Len()),
		mutatesParam: make([]bool, sig.Params().Len()),
		scoreShaped:  isScoreShape(sig),
	}
	for i := range s.returnParams {
		s.returnParams[i] = make(map[int]bool)
	}
	return s
}

func equalSummary(a, b *funcSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.scoreSource != b.scoreSource || len(a.returnTaint) != len(b.returnTaint) {
		return false
	}
	for i := range a.returnTaint {
		if a.returnTaint[i] != b.returnTaint[i] {
			return false
		}
		if len(a.returnParams[i]) != len(b.returnParams[i]) {
			return false
		}
		for p := range a.returnParams[i] {
			if !b.returnParams[i][p] {
				return false
			}
		}
	}
	for i := range a.mutatesParam {
		if a.mutatesParam[i] != b.mutatesParam[i] {
			return false
		}
	}
	return true
}

// summarySet holds the summaries of one package's declared functions.
type summarySet struct {
	funcs map[*types.Func]*funcSummary
}

func (s *summarySet) of(fn *types.Func) *funcSummary {
	if fn == nil {
		return nil
	}
	return s.funcs[fn]
}

func (s *summarySet) isScoreSource(fn *types.Func) bool {
	sum := s.of(fn)
	return sum != nil && sum.scoreSource
}

// computeSummaries runs the collect-mode taint walk over every declared
// function, bottom-up over SCCs, iterating each cycle to a fixpoint. The
// iteration cap bounds pathological src flapping between mutually recursive
// aliases; summaries stabilize in two rounds in practice.
func computeSummaries(pass *analysis.Pass) *summarySet {
	g := analysis.BuildCallGraph(pass)
	set := &summarySet{funcs: make(map[*types.Func]*funcSummary)}
	for _, scc := range g.BottomUpSCCs() {
		for round := 0; round < 2*len(scc)+2; round++ {
			changed := false
			for _, n := range scc {
				ns := summarizeFunc(pass, n, set)
				if !equalSummary(set.funcs[n.Fn], ns) {
					set.funcs[n.Fn] = ns
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return set
}

// summarizeFunc computes one function's summary against the current state of
// set (callee summaries may still be converging within an SCC).
func summarizeFunc(pass *analysis.Pass, n *analysis.Node, set *summarySet) *funcSummary {
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return &funcSummary{}
	}
	sum := newFuncSummary(sig)
	paramIdx := make(map[types.Object]int)
	i := 0
	for _, field := range n.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				paramIdx[obj] = i
			}
			i++
		}
	}
	cowWalk(pass, n.Decl.Body, set, sum, paramIdx)
	return sum
}

// aliasableParam reports whether a parameter of type t can carry shared
// mutable state across the call boundary.
func aliasableParam(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// isScoreShape reports whether sig returns exactly (float64, error).
func isScoreShape(sig *types.Signature) bool {
	if sig == nil || sig.Results().Len() != 2 {
		return false
	}
	if b, ok := sig.Results().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Float64 {
		return false
	}
	return types.Identical(sig.Results().At(1).Type(), types.Universe.Lookup("error").Type())
}

// isEngineScoreFunc reports whether fn is an engine/pipeline function with
// the (float64, error) score shape — the original fault-contract roots.
func isEngineScoreFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if p := fn.Pkg().Path(); p != enginePath && p != pipelinePath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && isScoreShape(sig)
}
