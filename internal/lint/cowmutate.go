package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// CowMutate flags writes through columns, chunk views, and statistics
// obtained from the dataset read accessors. Dataset.Clone shares columns
// copy-on-write, and with chunked storage the sharing is per chunk:
// Column/Columns hand out the shared *Column, Column.Chunk hands out a
// read-only view whose slices are a chunk's backing storage (shared across
// every dataset referencing the chunk), and Rollup/DistinctStrings hand out
// the map and slices of the cached, shared column roll-up. Mutating any of
// them writes through every clone and poisons the per-chunk stats and digest
// caches — the aliasing bug class the CoW contract (dataset/cow.go) exists
// to prevent. All mutation must route through MutableColumn + MutableChunk
// or the Set* helpers, which copy shared state before granting write
// access. NumericValues and StringValues return caller-owned copies and are
// not sources.
//
// The analyzer performs a forward taint walk per function: variables
// assigned from a read accessor (directly, via propagation through
// assignments, slicing, field selection, or ranging over Columns()) are
// tainted, and any write whose base is tainted — element assignment, field
// replacement, copy-into, append-to, or an in-place sort — is reported.
// Reassigning the variable from MutableColumn or MutableChunk clears its
// taint. The walk is interprocedural within the package: per-function
// summaries (see summary.go) track which results alias an accessor or a
// parameter and which parameters a function writes through, so taint
// survives helper indirection — a helper returning d.Column("x").Chunk(0).Nums
// taints its call sites, and passing an accessor slice to a helper that
// writes through its parameter is itself a finding.
var CowMutate = &analysis.Analyzer{
	Name: "cowmutate",
	Doc:  "flags mutation of CoW-shared dataset state obtained from read accessors (Column/Columns/Chunk/Rollup/DistinctStrings), including through in-package helpers; mutate via MutableColumn + MutableChunk or Set* instead",
	Run:  runCowMutate,
}

// taintSources maps Dataset read-accessor methods to the kind of shared
// state they expose.
var taintSources = map[string]string{
	"Column":          "Column",
	"Columns":         "Columns",
	"Rollup":          "Rollup",
	"DistinctStrings": "DistinctStrings",
}

// columnTaintSources maps Column read-accessor methods to the shared state
// they expose. MutableChunk is deliberately absent: like MutableColumn it is
// the sanctioned write path.
var columnTaintSources = map[string]string{
	"Chunk":  "Column.Chunk",
	"Rollup": "Column.Rollup",
}

// inPlaceSorters are stdlib functions that mutate their slice argument; a
// tainted argument means sorting shared state in place.
var inPlaceSorters = map[string]map[string]bool{
	"sort":   {"Float64s": true, "Strings": true, "Ints": true, "Slice": true, "SliceStable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true, "Reverse": true},
}

func runCowMutate(pass *analysis.Pass) (any, error) {
	sums := computeSummaries(pass)
	for _, f := range pass.Files {
		funcBodies(f, func(_ ast.Node, body *ast.BlockStmt) {
			cowWalk(pass, body, sums, nil, nil)
		})
	}
	return nil, nil
}

// cowWalk runs the taint pass over one function body in one of two modes:
//
//   - report mode (sum == nil): accessor-derived taint reaching a write is
//     reported through the pass;
//   - collect mode (sum != nil): parameters are seeded as taint sources and
//     the function's boundary behavior — which results alias an accessor or
//     a parameter, which parameters are written through, whether a score
//     pair is forwarded — is recorded into sum instead of reporting.
//
// Nested function literals are visited again by funcBodies with a fresh
// taint set; closures capturing a tainted variable are therefore checked
// against taint sourced inside the literal only — an accepted imprecision of
// the AST-level approximation (the SSA-based upstream version would track
// captures).
func cowWalk(pass *analysis.Pass, body *ast.BlockStmt, sums *summarySet, sum *funcSummary, paramIdx map[types.Object]int) {
	report := sum == nil
	taint := make(map[types.Object]taintVal)
	if sum != nil {
		for obj, i := range paramIdx {
			if aliasableParam(obj.Type()) {
				taint[obj] = taintVal{params: map[int]bool{i: true}}
			}
		}
	}

	// callTaint resolves the taint a call's (single) result carries: a
	// direct read-accessor call, or — interprocedurally — a callee summary
	// whose result aliases an accessor or forwards argument taint.
	var taintOf func(e ast.Expr) taintVal
	callTaint := func(call *ast.CallExpr) taintVal {
		if src := accessorCall(pass.TypesInfo, call); src != "" {
			return taintVal{src: src}
		}
		s := sums.of(calleeFunc(pass.TypesInfo, call))
		if s == nil || len(s.returnTaint) != 1 {
			return taintVal{}
		}
		tv := taintVal{src: s.returnTaint[0]}
		for j := 0; j < len(call.Args); j++ {
			if s.returnParams[0][j] {
				tv = mergeTaint(tv, taintOf(call.Args[j]))
			}
		}
		return tv
	}

	// taintOf reports the taint behind e: a read-accessor or summary call, a
	// tainted identifier, or a derivation (slice/field/index) of one.
	taintOf = func(e ast.Expr) taintVal {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			return callTaint(x)
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return taint[obj]
			}
		case *ast.IndexExpr:
			return taintOf(x.X) // element of a tainted []*Column, etc.
		case *ast.SliceExpr:
			return taintOf(x.X) // re-slice shares the backing array
		case *ast.SelectorExpr:
			// c.Nums / c.Strs / c.Null of a tainted column alias the
			// shared storage.
			if root, _ := baseIdent(x); root != nil {
				if obj := pass.TypesInfo.Uses[root]; obj != nil {
					if tv := taint[obj]; !tv.empty() {
						return tv
					}
				}
			}
			if call, ok := ast.Unparen(rootExpr(x)).(*ast.CallExpr); ok {
				return callTaint(call)
			}
		}
		return taintVal{}
	}

	// recordParamWrite marks the parameters a write-reaching taint value
	// aliases as mutated (collect mode only).
	recordParamWrite := func(tv taintVal) {
		if sum == nil {
			return
		}
		for p := range tv.params {
			if p < len(sum.mutatesParam) {
				sum.mutatesParam[p] = true
			}
		}
	}

	// handleWrite processes a write whose written-to expression may derive
	// from a tainted source: reported in report mode, recorded as a
	// parameter mutation in collect mode.
	handleWrite := func(at ast.Node, target ast.Expr, verb string) {
		var tv taintVal
		switch root := ast.Unparen(rootExpr(target)).(type) {
		case *ast.CallExpr:
			tv = callTaint(root)
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[root]; obj != nil {
				tv = taint[obj]
			}
		}
		if report && tv.src != "" {
			pass.Reportf(at.Pos(), "%s %s obtained from dataset.%s mutates CoW-shared state; route the write through MutableColumn (see internal/dataset/cow.go)", verb, describeTarget(target), tv.src)
		}
		recordParamWrite(tv)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			return false // analyzed separately with its own taint set
		case *ast.AssignStmt:
			// Writes through tainted bases (LHS is an index/selector chain).
			for _, lhs := range st.Lhs {
				if _, peeled := baseIdent(lhs); peeled || isCallRooted(lhs) {
					handleWrite(lhs, lhs, "assignment to")
				}
			}
			// Taint bookkeeping for plain variable (re)binding.
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj == nil {
						continue
					}
					if tv := taintOf(st.Rhs[i]); !tv.empty() {
						taint[obj] = tv
					} else {
						delete(taint, obj) // incl. re-bind from MutableColumn
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						if tv := taintOf(vs.Values[i]); !tv.empty() {
							taint[obj] = tv
						}
					}
				}
			}
		case *ast.RangeStmt:
			// for _, c := range d.Columns() — the element aliases shared
			// state whenever it is itself a pointer or slice.
			tv := taintOf(st.X)
			if tv.empty() {
				break
			}
			id, ok := st.Value.(*ast.Ident)
			if !ok || id.Name == "_" {
				break
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				break
			}
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Slice:
				taint[obj] = tv
			}
		case *ast.ReturnStmt:
			if sum == nil {
				break
			}
			if len(st.Results) == len(sum.returnTaint) {
				for i, res := range st.Results {
					tv := taintOf(res)
					if tv.src != "" && sum.returnTaint[i] == "" {
						sum.returnTaint[i] = tv.src
					}
					for p := range tv.params {
						sum.returnParams[i][p] = true
					}
				}
			}
			// Score forwarding: `return f(...)` where f is an
			// engine/pipeline score function or another score source makes
			// this function's (float64, error) pair fault-contract bearing.
			if sum.scoreShaped && len(st.Results) == 1 {
				if call, ok := ast.Unparen(st.Results[0]).(*ast.CallExpr); ok {
					fn := calleeFunc(pass.TypesInfo, call)
					if isEngineScoreFunc(fn) || sums.isScoreSource(fn) {
						sum.scoreSource = true
					}
				}
			}
		case *ast.CallExpr:
			f := calleeFunc(pass.TypesInfo, st)
			// copy(dst, ...) with a tainted destination.
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
				if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					handleWrite(st, st.Args[0], "copy into")
				}
			}
			// append(s, ...) growing a tainted slice may write into the
			// shared backing array when capacity allows.
			if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "append" && len(st.Args) > 0 {
				if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					handleWrite(st, st.Args[0], "append to")
				}
			}
			// In-place sorts of a tainted slice.
			if f != nil && f.Pkg() != nil && len(st.Args) > 0 {
				if names := inPlaceSorters[f.Pkg().Path()]; names[f.Name()] {
					tv := taintOf(st.Args[0])
					if report && tv.src != "" {
						pass.Reportf(st.Pos(), "%s.%s sorts a slice obtained from dataset.%s in place, reordering CoW-shared state for every clone; sort a copy instead", f.Pkg().Name(), f.Name(), tv.src)
					}
					recordParamWrite(tv)
				}
			}
			// Tainted argument handed to an in-package helper that writes
			// through the corresponding parameter (summary-propagated).
			if s := sums.of(f); s != nil {
				sig, _ := f.Type().(*types.Signature)
				for j, arg := range st.Args {
					pi := j
					if sig != nil && sig.Variadic() && pi >= len(s.mutatesParam) {
						pi = len(s.mutatesParam) - 1
					}
					if pi < 0 || pi >= len(s.mutatesParam) || !s.mutatesParam[pi] {
						continue
					}
					tv := taintOf(arg)
					if report && tv.src != "" {
						pass.Reportf(st.Pos(), "passes %s obtained from dataset.%s to %s, which writes through its parameter; copy CoW-shared state before handing it to a mutating helper (see internal/dataset/cow.go)", describeTarget(arg), tv.src, f.Name())
					}
					recordParamWrite(tv)
				}
			}
		case *ast.IncDecStmt:
			if _, peeled := baseIdent(st.X); peeled || isCallRooted(st.X) {
				handleWrite(st, st.X, "increment of")
			}
		}
		return true
	})
}

// accessorCall reports which dataset read accessor (or "") the call invokes.
// MutableColumn and MutableChunk deliberately map to "": they are the
// sanctioned write paths.
func accessorCall(info *types.Info, call *ast.CallExpr) string {
	f := calleeFunc(info, call)
	if f == nil {
		return ""
	}
	if src, ok := taintSources[f.Name()]; ok && methodOn(f, datasetPath, "Dataset", f.Name()) {
		return src
	}
	if src, ok := columnTaintSources[f.Name()]; ok && methodOn(f, datasetPath, "Column", f.Name()) {
		return src
	}
	return ""
}

// isCallRooted reports whether the expression chain bottoms out in a call,
// e.g. d.Column("x").Nums[i].
func isCallRooted(e ast.Expr) bool {
	_, ok := ast.Unparen(rootExpr(e)).(*ast.CallExpr)
	return ok
}

// describeTarget renders a short source-like description of the written
// expression for diagnostics.
func describeTarget(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return describeTarget(x.X) + "[...]"
	case *ast.SliceExpr:
		return describeTarget(x.X) + "[...]"
	case *ast.SelectorExpr:
		return describeTarget(x.X) + "." + x.Sel.Name
	case *ast.CallExpr:
		return describeTarget(x.Fun) + "(...)"
	case *ast.ParenExpr:
		return describeTarget(x.X)
	case *ast.StarExpr:
		return "*" + describeTarget(x.X)
	}
	return "expression"
}
