package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/engine").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without invoking the
// go command: module-internal import paths are resolved by mapping the
// module path prefix onto the module root directory, and everything else
// (the standard library) is delegated to the compiler's source importer,
// which works offline from GOROOT. Test files are not loaded — the lint
// suite checks shipped code; tests exercise the analyzers through fixtures.
type Loader struct {
	// Root is the module root directory (the one containing go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	busy map[string]bool
}

// NewLoader returns a loader for the module rooted at root. The module path
// is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   make(map[string]*Package),
		busy:   make(map[string]bool),
	}, nil
}

// Import implements types.Importer so the loader can feed itself to the
// type checker: module-internal paths load from disk, the rest from GOROOT.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.Module {
		return l.Root
	}
	rel := strings.TrimPrefix(path, l.Module+"/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// LoadDir type-checks the package in dir under the given import path. It is
// the entry point linttest uses for fixture packages living outside the
// module's import space.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Expand resolves go-style package patterns ("./...", "./internal/engine",
// "repro/internal/...") against the module root into import paths, in
// lexical order. Directories named testdata, hidden directories, and
// directories without buildable Go files are skipped.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
		if pat == "" || pat == "." {
			pat = "..."
		}
		pat = strings.TrimPrefix(pat, l.Module+"/")
		if pat == l.Module {
			pat = "..."
		}
		rec := false
		if strings.HasSuffix(pat, "...") {
			rec = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		base := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !rec {
			if ok, err := hasGoFiles(base); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("lint: no buildable Go files in %s", base)
			}
			add(l.pathFor(base))
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if ok, err := hasGoFiles(p); err != nil {
				return err
			} else if ok {
				add(l.pathFor(p))
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	sort.Strings(out)
	return out, nil
}

// pathFor maps a directory under Root to its import path.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// Load expands patterns and type-checks every matched package.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	paths, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
