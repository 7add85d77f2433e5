// Command dataprismlint runs the dataprism static-analysis suite — the
// machine-enforced CoW, determinism, cancellation, fault-contract,
// concurrency-hygiene, wire-format, and error-wrapping invariants — over
// the repository's packages.
//
// Usage:
//
//	dataprismlint [flags] [packages]
//
// Packages are go-style patterns relative to the module root ("./...",
// "./internal/engine", "repro/internal/..."); the default is "./...". The
// module root is found by walking up from the working directory to go.mod.
//
// Exit status is 0 when the tree is clean, 1 when any finding was
// reported, and 2 on a load or usage error. Suppress a finding with an
// adjacent "//lint:ignore analyzer reason" comment; the reason is
// mandatory, and a directive that suppresses nothing is itself a finding.
//
// Flags:
//
//	-json             emit {"findings": [...], "suppressed": [...]} as JSON
//	-update-wireform  recompute the wire-shape pins for the wireform-scoped
//	                  packages, rewrite internal/lint/wireform.golden.json,
//	                  and exit
//	-list             print the analyzers and their scopes, then exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("dataprismlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	updateWireform := fs.Bool("update-wireform", false, "recompute wire-shape pins into internal/lint/wireform.golden.json and exit")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "dataprismlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "dataprismlint:", err)
		return 2
	}

	scopes := lint.DefaultScopes(loader.Module)
	if *list {
		for _, az := range lint.Suite() {
			scope := "all packages"
			if s := scopes[az.Name]; len(s) > 0 {
				scope = strings.Join(s, ", ")
			}
			fmt.Fprintf(stdout, "%-16s %s\n%18sscope: %s\n", az.Name, az.Doc, "", scope)
		}
		return 0
	}

	if *updateWireform {
		return runUpdateWireform(root, loader, scopes, stdout, stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "dataprismlint:", err)
		return 2
	}
	res, err := lint.RunAll(pkgs, lint.Suite(), scopes)
	if err != nil {
		fmt.Fprintln(stderr, "dataprismlint:", err)
		return 2
	}

	if *jsonOut {
		out := struct {
			Findings   []lint.Finding `json:"findings"`
			Suppressed []lint.Finding `json:"suppressed"`
		}{Findings: res.Findings, Suppressed: res.Suppressed}
		if out.Findings == nil {
			out.Findings = []lint.Finding{}
		}
		if out.Suppressed == nil {
			out.Suppressed = []lint.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "dataprismlint:", err)
			return 2
		}
	} else {
		for _, f := range res.Findings {
			fmt.Fprintln(stdout, relativize(root, f))
		}
		if len(res.Findings) > 0 {
			fmt.Fprintf(stderr, "dataprismlint: %d finding(s) in %d package(s)\n", len(res.Findings), len(pkgs))
		}
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}

// runUpdateWireform recomputes the shape pins of every package in the
// wireform scope and rewrites the committed golden file.
func runUpdateWireform(root string, loader *lint.Loader, scopes map[string][]string, stdout, stderr *os.File) int {
	golden := make(map[string]lint.WirePin)
	for _, prefix := range scopes[lint.WireForm.Name] {
		pkgs, err := loader.Load([]string{prefix})
		if err != nil {
			fmt.Fprintln(stderr, "dataprismlint:", err)
			return 2
		}
		for _, pkg := range pkgs {
			pin, ok := lint.ComputeWirePin(pkg.Types)
			if !ok {
				continue
			}
			golden[pkg.Path] = pin
			fmt.Fprintf(stdout, "pinned %s: version %d, %d wire decl(s), hash %s\n",
				pkg.Path, pin.Version, len(pin.Structs), pin.Hash[:12])
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "dataprismlint:", err)
		return 2
	}
	path := filepath.Join(root, "internal", "lint", "wireform.golden.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "dataprismlint:", err)
		return 2
	}
	fmt.Fprintf(stderr, "dataprismlint: wrote %d pin(s) to %s\n", len(golden), path)
	return 0
}

// relativize shortens the file path in a finding's rendering relative to
// the module root for stable, readable output.
func relativize(root string, f lint.Finding) string {
	if rel, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(rel, "..") {
		f.File = rel
	}
	return f.String()
}

// findModuleRoot walks up from the working directory to the first go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
