// Package lint is dataprismlint: a suite of static analyzers that
// machine-enforce the repository's cross-cutting invariants — the
// copy-on-write dataset contract, the engine's determinism contract, the
// cancellation contract, the fault-tolerant scoring contract, the
// concurrency-hygiene contract, the wire-format versioning contract, and
// the sentinel-wrapping error contract. The analyzers are written against
// the minimal go/analysis-compatible framework in the analysis subpackage
// (the upstream x/tools module is not available in the hermetic build
// environment) and run through cmd/dataprismlint. Since lint v2 the
// framework includes an intra-package call graph with bottom-up summary
// propagation (analysis/callgraph.go, summary.go), so taint and score-error
// flow survive helper-function indirection.
//
// Findings can be suppressed per line with
//
//	//lint:ignore analyzer reason
//
// where the reason is mandatory; a malformed directive is itself a finding,
// and so is a stale directive that no longer suppresses anything. Files
// carrying the standard "Code generated ... DO NOT EDIT." header are
// exempt from analysis entirely.
package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Suite returns the dataprismlint analyzers in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{CowMutate, MapDeterminism, SeededRand, CtxFlow, FaultContract, LockOrder, WireForm, ErrWrap}
}

// DefaultScopes maps analyzer names to the import-path prefixes they apply
// to when run by the driver; analyzers absent from the map run everywhere.
// The scopes mirror where each invariant is load-bearing:
//
//   - mapdeterminism and seededrand guard the deterministic search/scoring
//     and reporting paths — including internal/graph, which decides
//     DataPrismGT's partitions, and internal/artifact, whose byte-identical
//     encoding contract a stray map iteration would break;
//   - ctxflow guards the packages that own blocking work and cancellation
//     plumbing: the engine, the pipeline (including the remote transport,
//     where a raw dial would hang cancellation), the persistent score
//     store, and the artifact watcher's ticker-driven feed loop;
//   - lockorder and errwrap guard the concurrent, fault-classified layers
//     (engine, pipeline, scorestore), where a lock held across a blocking
//     call stalls the fleet and an ==-compared sentinel breaks the retry/
//     breaker taxonomy;
//   - wireform guards the two packages that own persisted/transported byte
//     formats: internal/artifact and the remote protocol.
//
// cowmutate and faultcontract run tree-wide: shared columns and fallible
// scores flow everywhere.
func DefaultScopes(module string) map[string][]string {
	p := func(rel string) string { return module + "/" + rel }
	return map[string][]string{
		MapDeterminism.Name: {
			p("internal/core"), p("internal/graph"), p("internal/profile"),
			p("internal/transform"), p("internal/engine"), p("internal/report"),
			p("internal/artifact"),
		},
		SeededRand.Name: {
			p("internal/core"), p("internal/graph"), p("internal/profile"),
			p("internal/transform"), p("internal/engine"),
			// The reservoir-sampling paths: sample draws must be a pure
			// function of (geometry, seed), never of global rand state.
			p("internal/dataset"), p("internal/stats"),
		},
		CtxFlow.Name: {
			p("internal/engine"), p("internal/pipeline"), p("internal/scorestore"),
			p("internal/artifact"),
		},
		LockOrder.Name: {p("internal/engine"), p("internal/pipeline"), p("internal/scorestore")},
		ErrWrap.Name:   {p("internal/engine"), p("internal/pipeline"), p("internal/scorestore")},
		WireForm.Name:  {p("internal/artifact"), p("internal/pipeline/remote")},
	}
}

// Finding is one diagnostic. Suppressed findings (covered by a
// //lint:ignore directive) are reported separately by RunAll with the
// directive's justification attached, so suppression reasons survive into
// -json output.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	// Suppressed marks a finding silenced in source; SuppressReason carries
	// the directive's mandatory justification.
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

// String renders the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Column, f.Message, f.Analyzer)
}

// Result is the full outcome of a driver run: active findings (gate CI) and
// suppressed ones (carried for transparency with their justifications).
type Result struct {
	Findings   []Finding
	Suppressed []Finding
}

// inScope reports whether pkgPath falls under any of the prefixes (empty
// prefix list means everywhere).
func inScope(pkgPath string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// generatedRe matches the standard Go generated-file marker
// (https://go.dev/s/generatedcode): it must be a whole comment line before
// the package clause.
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// generatedFiles returns the filenames of pkg's files carrying the
// generated-code marker; the driver exempts them from analysis.
func generatedFiles(pkg *Package) map[string]bool {
	out := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			if cg.Pos() >= f.Package {
				break
			}
			for _, c := range cg.List {
				if generatedRe.MatchString(c.Text) {
					out[pkg.Fset.Position(f.Package).Filename] = true
				}
			}
		}
	}
	return out
}

// Run applies the analyzers to the packages, honoring scopes and
// //lint:ignore directives, and returns the active findings sorted by
// position. A nil scopes map runs every analyzer everywhere.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer, scopes map[string][]string) ([]Finding, error) {
	res, err := RunAll(pkgs, analyzers, scopes)
	if err != nil {
		return nil, err
	}
	return res.Findings, nil
}

// RunAll is Run plus the suppressed findings and the suppression-lifecycle
// checks: malformed directives, directives naming unknown analyzers, and
// stale directives (well-formed, every named analyzer ran, yet nothing was
// suppressed) are all reported as findings of the pseudo-analyzer "lint".
func RunAll(pkgs []*Package, analyzers []*analysis.Analyzer, scopes map[string][]string) (*Result, error) {
	res := &Result{}
	known := make(map[string]bool)
	for _, az := range Suite() {
		known[az.Name] = true
	}
	for _, pkg := range pkgs {
		generated := generatedFiles(pkg)
		idx := buildIgnoreIndex(pkg.Fset, pkg.Files, generated)
		for _, d := range idx.malformed {
			res.Findings = append(res.Findings, toFinding("lint", pkg.Fset, d.pos,
				"malformed //lint:ignore directive: want \"//lint:ignore analyzer reason\" with a non-empty reason"))
		}
		ran := make(map[string]bool)
		for _, az := range analyzers {
			if scopes != nil && !inScope(pkg.Path, scopes[az.Name]) {
				continue
			}
			ran[az.Name] = true
			pass := &analysis.Pass{
				Analyzer:  az,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := az.Name
			pass.Report = func(d analysis.Diagnostic) {
				if generated[pkg.Fset.Position(d.Pos).Filename] {
					return
				}
				if dir := idx.match(name, d.Pos); dir != nil {
					f := toFinding(name, pkg.Fset, d.Pos, d.Message)
					f.Suppressed = true
					f.SuppressReason = dir.reason
					res.Suppressed = append(res.Suppressed, f)
					return
				}
				res.Findings = append(res.Findings, toFinding(name, pkg.Fset, d.Pos, d.Message))
			}
			if _, err := az.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", az.Name, pkg.Path, err)
			}
		}
		res.Findings = append(res.Findings, directiveLifecycleFindings(pkg, idx, known, ran)...)
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

// directiveLifecycleFindings reports directives that name analyzers outside
// the suite vocabulary and directives that suppressed nothing. A named
// directive is only stale when every analyzer it names actually ran on the
// package (a scoped-out or partial run proves nothing); a wildcard is stale
// when any analyzer ran and nothing matched.
func directiveLifecycleFindings(pkg *Package, idx *ignoreIndex, known, ran map[string]bool) []Finding {
	var out []Finding
	for _, d := range idx.directives {
		for _, name := range d.names() {
			if !known[name] {
				out = append(out, toFinding("lint", pkg.Fset, d.pos,
					fmt.Sprintf("//lint:ignore names unknown analyzer %q (known: suite analyzers); a typo here silently disables nothing", name)))
			}
		}
		if d.used {
			continue
		}
		applicable := d.all && len(ran) > 0
		if !d.all {
			applicable = true
			for name := range d.analyzers {
				if !ran[name] {
					applicable = false
					break
				}
			}
		}
		if applicable {
			out = append(out, toFinding("lint", pkg.Fset, d.pos,
				"stale //lint:ignore directive: it suppresses nothing on this line; delete it (or fix the analyzer name)"))
		}
	}
	return out
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func toFinding(analyzer string, fset *token.FileSet, pos token.Pos, msg string) Finding {
	p := fset.Position(pos)
	return Finding{Analyzer: analyzer, File: p.Filename, Line: p.Line, Column: p.Column, Message: msg}
}
