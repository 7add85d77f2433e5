package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// Node is one declared function or method of the package under analysis,
// with its outgoing in-package call edges. Function literals are not nodes:
// they are analyzed as part of their enclosing declaration.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Callees lists the in-package functions this one may invoke
	// synchronously, deduplicated, in first-call order. Calls made from the
	// body of a `go func(){...}` literal are excluded — they run on another
	// goroutine and neither block this function nor execute under its locks.
	Callees []*Node
}

// CallGraph is the intra-package call graph summaries and blocking
// propagation run over. Cross-package edges are intentionally absent: each
// analyzer pass sees one type-checked package, and the contracts enforced
// interprocedurally (taint laundering, score forwarding, blocking
// propagation) are helper-indirection problems, which are overwhelmingly
// package-local.
type CallGraph struct {
	// Nodes holds every declared function with a body, in file order — the
	// deterministic base ordering every traversal derives from.
	Nodes []*Node
	byFn  map[*types.Func]*Node
}

// BuildCallGraph constructs the intra-package call graph of the pass.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{byFn: make(map[*types.Func]*Node)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &Node{Fn: fn, Decl: fd}
			g.Nodes = append(g.Nodes, n)
			g.byFn[fn] = n
		}
	}
	for _, n := range g.Nodes {
		seen := make(map[*Node]bool)
		var visit func(x ast.Node) bool
		visit = func(x ast.Node) bool {
			if gs, ok := x.(*ast.GoStmt); ok {
				// Only the argument expressions are evaluated on this
				// goroutine; the call itself (and a literal callee's body)
				// runs elsewhere.
				for _, arg := range gs.Call.Args {
					ast.Inspect(arg, visit)
				}
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee *types.Func
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callee, _ = pass.TypesInfo.Uses[fun].(*types.Func)
			case *ast.SelectorExpr:
				callee, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
			}
			if c := g.byFn[callee]; c != nil && !seen[c] {
				seen[c] = true
				n.Callees = append(n.Callees, c)
			}
			return true
		}
		ast.Inspect(n.Decl.Body, visit)
	}
	return g
}

// BottomUpSCCs returns the strongly connected components of the call graph
// in callee-first (reverse topological) order: when an SCC is emitted, every
// SCC it calls into has already been emitted. Summaries computed in this
// order see converged callee summaries everywhere except within their own
// cycle, which callers close with a local fixpoint. Components preserve
// declaration order internally, so iteration is deterministic.
func (g *CallGraph) BottomUpSCCs() [][]*Node {
	index := make(map[*Node]int, len(g.Nodes))
	low := make(map[*Node]int, len(g.Nodes))
	onStack := make(map[*Node]bool, len(g.Nodes))
	var stack []*Node
	var sccs [][]*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.Callees {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return index[scc[i]] < index[scc[j]] })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range g.Nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
