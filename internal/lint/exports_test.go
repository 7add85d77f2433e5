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
	"repro/internal/pvt.Unregister":                                    "the root package's tests undo a registration in the process-wide catalog and cannot see a pvt test helper",
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
