package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// testOnlyExemptions are the exported internal names the module's programs
// never reference but that stay on purpose. Every other export under
// internal/ must have a caller outside _test.go files. Keys are
// "pkgpath.Name" or "pkgpath.Type.Method".
var testOnlyExemptions = map[string]string{
	"repro/internal/core.Explainer.ExplainWithDecisionTreePVTsContext": "the paper's Appendix B decision-tree search",
	"repro/internal/core.Explainer.EnumerateExplanationsPVTsContext":   "the paper's Appendix B explanation enumeration",
	"repro/internal/dataset.Dataset.Str":                               "string half of the cell accessors whose numeric half programs call",
	"repro/internal/dataset.Dataset.IsNull":                            "NULL half of the cell accessors whose numeric half programs call",
	"repro/internal/dataset.Dataset.SetStr":                            "string half of the cell setters whose numeric half programs call",
	"repro/internal/dataset.Dataset.SetNull":                           "NULL half of the cell setters whose numeric half programs call",
	"repro/internal/pipeline.FaultInjector.Calls":                      "the facade's chaos harness reports what it saw",
	"repro/internal/pipeline.FaultInjector.Injected":                   "the facade's chaos harness reports what it injected",
	"repro/internal/transform.UnregisterBuilder":                       "the root package's tests undo a registration in the process-wide catalog and cannot see a transform test helper",
	"repro/internal/lint/linttest.Run":                                 "the analyzers' golden harness, a test library by design",
}

// TestNoTestOnlyExports fails on any exported package-level object, and on
// any exported method of an exported type, declared under internal/ and
// referenced from no non-test file except at its own declaration. An API
// that only its tests call is a second way to do a task that no program
// uses. A method is exempt when its receiver implements an interface that
// declares it, since a call through the interface names no method.
func TestNoTestOnlyExports(t *testing.T) {
	if len(testOnlyExemptions) > 10 {
		t.Fatalf("%d named exemptions; keep at most ten", len(testOnlyExemptions))
	}
	loader, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	// own maps an object to the source ranges that declare it: its own
	// declaration and, for a type, the receivers of its methods.
	own := map[types.Object][][2]token.Pos{}
	var ifaces []*types.Interface
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					own[obj] = append(own[obj], [2]token.Pos{d.Pos(), d.End()})
					if d.Recv != nil {
						if named := receiverNamed(obj); named != nil {
							tn := named.Obj()
							own[tn] = append(own[tn], [2]token.Pos{d.Recv.Pos(), d.Recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := pkg.Info.Defs[s.Name]
							own[obj] = append(own[obj], [2]token.Pos{s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, name := range s.Names {
								obj := pkg.Info.Defs[name]
								own[obj] = append(own[obj], [2]token.Pos{s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	ifaces = append(ifaces, stdInterfaces(t, loader)...)

	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if !inRanges(id.Pos(), own[obj]) {
				used[obj] = true
			}
		}
	}

	var unused []string
	stale := maps.Clone(testOnlyExemptions)
	report := func(key string, pos token.Position) {
		if _, ok := testOnlyExemptions[key]; ok {
			delete(stale, key)
			return
		}
		unused = append(unused, pos.String()+": "+key)
	}
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				report(pkg.Path+"."+name, pkg.Fset.Position(obj.Pos()))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || implementsDeclaring(named, m.Name(), ifaces) {
					continue
				}
				report(pkg.Path+"."+name+"."+m.Name(), pkg.Fset.Position(m.Pos()))
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but referenced only by tests: %s", u)
	}
	for key := range stale {
		t.Errorf("stale exemption %s: it has a non-test caller or no longer exists", key)
	}
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

func inRanges(pos token.Pos, ranges [][2]token.Pos) bool {
	for _, r := range ranges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// implementsDeclaring reports whether named or *named implements one of the
// interfaces and that interface declares a method called name.
func implementsDeclaring(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				declares = true
				break
			}
		}
		if declares && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}

// stdInterfaces returns the standard interfaces a method may implement
// without any module code calling it by name.
func stdInterfaces(t *testing.T, imp types.Importer) []*types.Interface {
	t.Helper()
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for path, names := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler", "BinaryMarshaler", "BinaryUnmarshaler"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"go/types":      {"Importer"},
	} {
		pkg, err := imp.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
		}
	}
	return out
}

// unsetExemptions are the settings and interface methods that
// TestNoUnsetSettingsOrUncalledMethods lets stay although no program sets or
// calls them. Keys are "pkgpath.Type.Field", "pkgpath.Type" for every field
// of a struct, or "pkgpath.Interface.Method".
var unsetExemptions = map[string]string{
	"repro/internal/pipeline.FaultInjector":             "the facade's chaos harness, which tests configure",
	"repro/internal/pipeline.Breaker.Clock":             "tests substitute a fake clock",
	"repro/internal/pipeline.External.Timeout":          "a deployment timeout",
	"repro/internal/pipeline/remote.Config.DialTimeout": "a deployment timeout",
	"repro/internal/scorestore.Options.Sync":            "durability: a deployment chooses whether each record is fsynced",
}

// TestNoUnsetSettingsOrUncalledMethods fails on two kinds of dead surface
// under internal/ that TestNoTestOnlyExports cannot see, because it checks
// package-level names and methods:
//
//   - an exported field of an exported struct that no non-test file sets,
//     and that no non-test file outside its package reads. Setting is
//     naming the field as a composite-literal key anywhere, or assigning,
//     incrementing or taking the address of it, through a chain of
//     selectors and indexes, outside the methods of its own struct (a
//     method updating its own state is not a program choosing a value).
//     Such a field is a setting no program changes: its default is a
//     constant.
//   - a method of a named interface that no non-test file calls, through
//     the interface or on a type that implements it. Every implementation
//     then carries a method only tests call.
func TestNoUnsetSettingsOrUncalledMethods(t *testing.T) {
	if len(unsetExemptions) > 5 {
		t.Fatalf("%d named exemptions; keep at most five", len(unsetExemptions))
	}
	loader, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	stale := maps.Clone(unsetExemptions)
	fset := pkgs[0].Fset // the loader parses every package into one file set
	report := func(keys []string, what string, pos token.Pos) {
		for _, k := range keys {
			if _, ok := unsetExemptions[k]; ok {
				delete(stale, k)
				return
			}
		}
		dead = append(dead, fset.Position(pos).String()+": "+keys[0]+" "+what)
	}
	fields, ifaces := settingsAndInterfaces(pkgs)
	used := usedSettings(pkgs, fields)
	for v, owner := range fields {
		if !used[v] {
			typeKey := owner.Obj().Pkg().Path() + "." + owner.Obj().Name()
			report([]string{typeKey + "." + v.Name(), typeKey}, "is set by no program and read by no other package", v.Pos())
		}
	}
	calls := methodCalls(pkgs)
	for _, named := range ifaces {
		it := named.Underlying().(*types.Interface)
		for i := 0; i < it.NumExplicitMethods(); i++ {
			if m := it.ExplicitMethod(i); !calledThrough(it, m, calls) {
				key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + m.Name()
				report([]string{key}, "is called by no program", m.Pos())
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s", d)
	}
	for key := range stale {
		t.Errorf("stale exemption %s: a program sets or calls it, or it no longer exists", key)
	}
}

// settingsAndInterfaces returns the exported fields of the exported structs
// declared under internal/, each mapped to its struct, and the named
// interfaces declared there.
func settingsAndInterfaces(pkgs []*lint.Package) (map[*types.Var]*types.Named, []*types.Named) {
	fields := map[*types.Var]*types.Named{}
	var ifaces []*types.Named
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for i := 0; tn.Exported() && i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() {
						fields[f] = named
					}
				}
			case *types.Interface:
				ifaces = append(ifaces, named)
			}
		}
	}
	return fields, ifaces
}

// usedSettings reports which of fields a non-test file sets, or reads from
// outside the field's package.
func usedSettings(pkgs []*lint.Package, fields map[*types.Var]*types.Named) map[*types.Var]bool {
	used := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if v, ok := obj.(*types.Var); ok {
				if owner, ok := fields[v.Origin()]; ok && owner.Obj().Pkg() != pkg.Types {
					used[v.Origin()] = true
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				var recv *types.Named
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = receiverNamed(pkg.Info.Defs[fd.Name])
				}
				// A composite literal builds a whole value, so it sets the
				// fields it names even inside its own type's methods (a
				// decoder); a mutation there is the value keeping its state.
				set := func(v *types.Var, inOwnMethod bool) {
					v = v.Origin()
					if owner, ok := fields[v]; ok && (!inOwnMethod || recv == nil || owner.Origin() != recv.Origin()) {
						used[v] = true
					}
				}
				mutate := func(e ast.Expr) {
					for {
						switch x := e.(type) {
						case *ast.ParenExpr:
							e = x.X
						case *ast.StarExpr:
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.SelectorExpr:
							if s := pkg.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
								set(s.Obj().(*types.Var), true)
							}
							e = x.X
						default:
							return
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						typ := pkg.Info.TypeOf(n)
						if p, ok := typ.(*types.Pointer); ok {
							typ = p.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := pkg.Info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									set(v, false)
								}
							} else if i < st.NumFields() {
								set(st.Field(i), false)
							}
						}
					case *ast.AssignStmt:
						if n.Tok != token.DEFINE {
							for _, lhs := range n.Lhs {
								mutate(lhs)
							}
						}
					case *ast.IncDecStmt:
						mutate(n.X)
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							mutate(n.Key)
							mutate(n.Value)
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							mutate(n.X)
						}
					}
					return true
				})
			}
		}
	}
	return used
}

// methodCall is one method selected in a non-test file: the method and the
// type it was selected on.
type methodCall struct {
	recv types.Type
	fn   *types.Func
}

// methodCalls returns every method call or method value in pkgs.
func methodCalls(pkgs []*lint.Package) []methodCall {
	var calls []methodCall
	for _, pkg := range pkgs {
		for _, sel := range pkg.Info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok {
				calls = append(calls, methodCall{sel.Recv(), fn.Origin()})
			}
		}
	}
	return calls
}

// calledThrough reports whether some call selects m through it, or selects
// a method of m's name on a type that implements it.
func calledThrough(it *types.Interface, m *types.Func, calls []methodCall) bool {
	for _, c := range calls {
		if c.fn == m || c.fn.Name() == m.Name() &&
			(types.Implements(c.recv, it) || types.Implements(types.NewPointer(c.recv), it)) {
			return true
		}
	}
	return false
}
