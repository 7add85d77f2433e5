package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
)

// FaultContract enforces the error-aware scoring contract introduced with
// the fault-tolerant oracle layer: a score is only trustworthy alongside
// its paired error. Two patterns violate it:
//
//   - discarding the error half of an engine/pipeline (score, error)
//     return with a blank identifier — the score slot is NaN on failure,
//     and storing it into a cache, Stats, or a comparison silently
//     propagates a measurement failure as a malfunction score (the
//     cache-poisoning bug the engine refund path exists to prevent);
//   - reading pipeline.ScoreResult.Score from a value whose Err (or
//     Transient/Deterministic classification) the function never
//     consults — collapsing "the measurement failed" into "the system
//     malfunctions", which corrupts causal conclusions and fault
//     accounting.
//
// The discarded-error check is interprocedural within the package: an
// in-package helper that forwards an engine/pipeline score pair (return
// ev.Score(ctx, d), possibly through further helpers) is itself
// score-bearing, so `s, _ := helper(...)` is flagged too. The summaries come
// from the shared call-graph layer in summary.go.
var FaultContract = &analysis.Analyzer{
	Name: "faultcontract",
	Doc:  "flags engine/pipeline score errors discarded with _ (including through score-forwarding helpers), and ScoreResult.Score reads that never consult Err/Transient/Deterministic; failed measurements must not flow into caches or stats",
	Run:  runFaultContract,
}

// scoreResultChecks are the ScoreResult fields whose consultation proves
// the caller distinguished failure from score.
var scoreResultChecks = map[string]bool{"Err": true, "Transient": true, "Deterministic": true}

func runFaultContract(pass *analysis.Pass) (any, error) {
	sums := computeSummaries(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				checkDiscardedScoreErr(pass, as, sums)
			}
			return true
		})
		// Whole FuncDecl bodies (function literals included) form one
		// consultation scope, so an Err check outside a closure vouches for
		// a Score read inside it and vice versa.
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkScoreResultUse(pass, fn.Body)
			}
		}
	}
	return nil, nil
}

// checkDiscardedScoreErr flags `score, _ := f(...)` where f is an
// engine/pipeline function returning (float64, error), or an in-package
// helper whose summary shows it forwards such a pair.
func checkDiscardedScoreErr(pass *analysis.Pass, as *ast.AssignStmt, sums *summarySet) {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if !isEngineScoreFunc(fn) && !sums.isScoreSource(fn) {
		return
	}
	if id, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(as.Pos(), "discards the error paired with %s.%s's score: on failure the score is NaN and must not reach a cache, Stats, or a comparison; check the error (or use errors.Is with engine.Fatal)", fn.Pkg().Name(), fn.Name())
	}
}

// checkScoreResultUse flags ScoreResult variables whose Score is read while
// Err, Transient, and Deterministic are never consulted in the same
// function.
func checkScoreResultUse(pass *analysis.Pass, body *ast.BlockStmt) {
	type usage struct {
		scorePos token.Pos
		checked  bool
	}
	uses := make(map[types.Object]*usage)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if path, name := namedType(obj.Type()); path != pipelinePath || name != "ScoreResult" {
			return true
		}
		u := uses[obj]
		if u == nil {
			u = &usage{}
			uses[obj] = u
		}
		switch {
		case sel.Sel.Name == "Score":
			if u.scorePos == token.NoPos {
				u.scorePos = sel.Pos()
			}
		case scoreResultChecks[sel.Sel.Name]:
			u.checked = true
		}
		return true
	})
	// Deterministic report order: sort by position.
	var flagged []*usage
	for _, u := range uses {
		if u.scorePos != token.NoPos && !u.checked {
			flagged = append(flagged, u)
		}
	}
	sort.Slice(flagged, func(i, j int) bool { return flagged[i].scorePos < flagged[j].scorePos })
	for _, u := range flagged {
		pass.Reportf(u.scorePos, "ScoreResult.Score read without consulting Err/Transient/Deterministic: a failed evaluation's Score is NaN, and its classification feeds the fault counters; branch on Err first")
	}
}
