package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/profile"
	"repro/internal/synth"
)

func sampleSummary(t *testing.T) Summary {
	t.Helper()
	sc := synth.New(synth.Options{NumPVTs: 10, NumAttrs: 3, Conjunction: 2, Seed: 61})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 61}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	return Summary{
		SystemName: sc.System.Name(),
		Tau:        0.05,
		PassScore:  0,
		FailScore:  1,
		Result:     res,
	}
}

func TestTextReport(t *testing.T) {
	s := sampleSummary(t)
	text := s.Text()
	for _, want := range []string{
		"system: synthetic-dnf",
		"malfunction(pass) = 0.000",
		"minimal explanation:",
		"root causes by class:",
		"ACCEPTED",
		"interventions:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

func TestMarkdownReport(t *testing.T) {
	s := sampleSummary(t)
	md := s.Markdown()
	for _, want := range []string{
		"## DataPrism report: synthetic-dnf",
		"| discriminative PVTs | 10 |",
		"### Root causes (minimal explanation)",
		"- **",
		"### Intervention trace",
		"| 1 |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown report missing %q:\n%s", want, md)
		}
	}
}

func TestReportsWithoutResult(t *testing.T) {
	s := Summary{SystemName: "x", Tau: 0.3, PassScore: 0.1, FailScore: 0.9}
	if !strings.Contains(s.Text(), "no result") {
		t.Error("nil result text wrong")
	}
	if !strings.Contains(s.Markdown(), "malfunction (failing) | 0.900") {
		t.Error("nil result markdown wrong")
	}
}

func TestReportNotFound(t *testing.T) {
	s := sampleSummary(t)
	s.Result = &core.Result{Found: false, FinalScore: 0.8, Discriminative: 3}
	if !strings.Contains(s.Text(), "no explanation found") {
		t.Error("not-found text wrong")
	}
	if !strings.Contains(s.Markdown(), "**No explanation found**") {
		t.Error("not-found markdown wrong")
	}
}

// groupTestSummary is a GT result on a Figure 8b-shape synth instance
// (one attribute per PVT), whose top bisection steps hold half the
// candidates each.
func groupTestSummary(tb testing.TB, pvts int) Summary {
	tb.Helper()
	sc := synth.New(synth.Options{NumPVTs: pvts, NumAttrs: pvts, Conjunction: 1, Seed: 1, CauseTopBenefit: true})
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 1}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		tb.Fatal(err)
	}
	return Summary{SystemName: sc.System.Name(), Tau: 0.05, FailScore: 1, Result: res}
}

// TestReportsBoundNamesPerStep renders a GT result at 10k PVTs: every
// trace line lists at most maxStepNames names, a larger group gives its
// size, and each report stays under a fixed size.
func TestReportsBoundNamesPerStep(t *testing.T) {
	s := groupTestSummary(t, 10000)
	if n := len(s.Result.Trace[0].PVTs); n != 5000 {
		t.Fatalf("first step holds %d PVTs, want 5000", n)
	}
	for _, r := range []struct {
		name, out, prefix string
	}{
		{"text", s.Text(), "  ["},
		{"markdown", s.Markdown(), "| "},
	} {
		if len(r.out) > 32<<10 {
			t.Errorf("%s report is %d bytes, want at most 32 KiB", r.name, len(r.out))
		}
		if !strings.Contains(r.out, "… (5000 PVTs)") {
			t.Errorf("%s report does not give the first group's size", r.name)
		}
		steps := 0
		for _, line := range strings.Split(r.out, "\n") {
			if !strings.HasPrefix(line, r.prefix) || !strings.Contains(line, "⟨Synth") {
				continue
			}
			steps++
			if n := strings.Count(line, "⟨Synth"); n > maxStepNames {
				t.Fatalf("%s trace line lists %d names: %.120s…", r.name, n, line)
			}
		}
		if steps != len(s.Result.Trace) {
			t.Errorf("%s report has %d trace lines, want %d", r.name, steps, len(s.Result.Trace))
		}
	}
}

// markdownCells counts the cells of a Markdown table row: its "|"
// separators not escaped as "\|", less one.
func markdownCells(row string) int {
	n := 0
	for i := 0; i < len(row); i++ {
		if row[i] == '|' && (i == 0 || row[i-1] != '\\') {
			n++
		}
	}
	return n - 1
}

// TestMarkdownEscapesPipes checks that free text holding "|" — a text
// Domain pattern, a transform name, the baseline artifact label — stays
// inside its table cell.
func TestMarkdownEscapesPipes(t *testing.T) {
	note := &profile.DomainText{Attr: "note", Pattern: pattern.Learn([]string{"Ab 1.", "zz", "Q9 x"})}
	if !strings.Contains(note.String(), "|") {
		t.Fatalf("pattern renders without a pipe: %s", note)
	}
	res := &core.Result{
		Candidates: []*core.PVT{{Profile: note}},
		Trace: []core.Step{
			{PVTs: []int{0}, Transform: "conform-pattern", Accepted: true},
			{PVTs: []int{0}, Transform: "a|b"},
		},
	}
	md := Summary{SystemName: "x", Baseline: "base|line.json", Result: res}.Markdown()
	rows := 0
	for _, line := range strings.Split(md, "\n") {
		switch {
		case strings.Contains(line, "⟨Domain"):
			rows++
			if n := markdownCells(line); n != 5 {
				t.Errorf("trace row has %d cells, want 5: %s", n, line)
			}
		case strings.HasPrefix(line, "| baseline artifact"):
			if n := markdownCells(line); n != 2 {
				t.Errorf("baseline row has %d cells, want 2: %s", n, line)
			}
		}
	}
	if rows != len(res.Trace) {
		t.Errorf("found %d trace rows, want %d:\n%s", rows, len(res.Trace), md)
	}
}

// BenchmarkReportGroupTest renders the text and Markdown reports of a GT
// result on a Figure 8b-shape instance of 100k PVTs.
func BenchmarkReportGroupTest(b *testing.B) {
	s := groupTestSummary(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Text()
		_ = s.Markdown()
	}
}
