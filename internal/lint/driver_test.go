package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// writeModule lays out a throwaway module for loader/driver tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func runSuite(t *testing.T, root string, patterns []string, scoped bool) []lint.Finding {
	t.Helper()
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		t.Fatal(err)
	}
	var scopes map[string][]string
	if scoped {
		scopes = lint.DefaultScopes(loader.Module)
	}
	findings, err := lint.Run(pkgs, lint.Suite(), scopes)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestSeededViolationIsCaught is the acceptance check in miniature: a
// freshly seeded violation in a scoped package must produce a positioned
// diagnostic, and removing it must bring the suite back to zero findings.
func TestSeededViolationIsCaught(t *testing.T) {
	dirty := writeModule(t, map[string]string{
		"internal/engine/clock.go": `package engine

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	findings := runSuite(t, dirty, []string{"./..."}, true)
	if len(findings) != 1 {
		t.Fatalf("want exactly 1 finding for the seeded violation, got %d: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "seededrand" || f.Line != 5 || !strings.HasSuffix(f.File, "clock.go") {
		t.Fatalf("finding not positioned at the violation: %+v", f)
	}

	clean := writeModule(t, map[string]string{
		"internal/engine/clock.go": `package engine

func Stamp(now func() int64) int64 { return now() }
`,
	})
	if findings := runSuite(t, clean, []string{"./..."}, true); len(findings) != 0 {
		t.Fatalf("clean module should have no findings, got %v", findings)
	}
}

// TestDefaultScopesConfinePathSensitiveAnalyzers: the same violation
// outside an analyzer's scope is not reported under the default scopes but
// is under an unscoped (nil) run.
func TestDefaultScopesConfinePathSensitiveAnalyzers(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/workload/clock.go": `package workload

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	if findings := runSuite(t, root, []string{"./..."}, true); len(findings) != 0 {
		t.Fatalf("seededrand is not scoped to internal/workload; got %v", findings)
	}
	if findings := runSuite(t, root, []string{"./..."}, false); len(findings) != 1 {
		t.Fatalf("unscoped run should flag the violation; got %v", findings)
	}
}

// TestArtifactPackageInMapDeterminismScope: internal/artifact's
// byte-identical encoding contract is guarded by mapdeterminism, so an
// unsorted map-to-slice emission there must be flagged under the default
// scopes.
func TestArtifactPackageInMapDeterminismScope(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/artifact/emit.go": `package artifact

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
	})
	findings := runSuite(t, root, []string{"./..."}, true)
	if len(findings) != 1 || findings[0].Analyzer != "mapdeterminism" {
		t.Fatalf("want 1 mapdeterminism finding in internal/artifact, got %v", findings)
	}
}

// TestGraphPackageInDeterminismScope: internal/graph decides DataPrismGT's
// partitions, so an unsorted map-to-slice emission and a draw from the
// global math/rand source there must both be flagged under the default
// scopes.
func TestGraphPackageInDeterminismScope(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/emit.go": `package graph

import "math/rand"

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Pick(n int) int { return rand.Intn(n) }
`,
	})
	findings := runSuite(t, root, []string{"./..."}, true)
	got := map[string]int{}
	for _, f := range findings {
		got[f.Analyzer]++
	}
	if len(findings) != 2 || got["mapdeterminism"] != 1 || got["seededrand"] != 1 {
		t.Fatalf("want 1 mapdeterminism and 1 seededrand finding in internal/graph, got %v", findings)
	}
}

// TestRepositoryTreeIsClean runs the full default-scoped suite over this
// repository — the acceptance criterion the CI lint job enforces with the
// dataprismlint binary. Any finding here means a contract regression (or a
// missing //lint:ignore justification).
func TestRepositoryTreeIsClean(t *testing.T) {
	findings := runSuite(t, moduleRoot(t), []string{"./..."}, true)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// moduleRoot walks up from the test's directory to the first go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			return root
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above test directory")
		}
		root = parent
	}
}
