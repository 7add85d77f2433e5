// Package report renders root-cause search results for humans: a compact
// text report for terminals and a Markdown report for issue trackers and
// docs. Both include the verdict, the minimal explanation, and the
// intervention trace, which lists at most maxStepNames PVT names per step.
package report

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// byClass groups an explanation's PVTs by the class their profiles' Type()
// names, preserving explanation order within a class; class names come out
// sorted.
func byClass(expl []*core.PVT) ([]string, map[string][]string) {
	groups := make(map[string][]string)
	var names []string
	for _, p := range expl {
		c := p.Profile.Type()
		if _, ok := groups[c]; !ok {
			names = append(names, c)
		}
		groups[c] = append(groups[c], p.String())
	}
	sort.Strings(names)
	return names, groups
}

// maxStepNames bounds the PVT names a report lists for one trace step: a
// group-testing step at Figure 8 scale holds 150k PVTs.
const maxStepNames = 8

// stepPVTs renders a trace step's PVTs joined by " + ": every name of a
// group of at most maxStepNames, else the first maxStepNames names and the
// group's size.
func stepPVTs(r *core.Result, ids []int) string {
	if len(ids) <= maxStepNames {
		return strings.Join(r.Names(ids), " + ")
	}
	return fmt.Sprintf("%s + … (%d PVTs)", strings.Join(r.Names(ids[:maxStepNames]), " + "), len(ids))
}

// cell escapes free text for a Markdown table cell, where "|" would end
// the cell.
func cell(s string) string { return strings.ReplaceAll(s, "|", `\|`) }

// Summary bundles a Result with the run's context for rendering.
type Summary struct {
	SystemName string
	Tau        float64
	PassScore  float64
	FailScore  float64
	// Baseline names the pinned profile artifact the search's candidate
	// profiles were decoded from (its path or label), empty when profiles
	// were discovered fresh from the passing dataset. When set, the report
	// cites it as the provenance of every violated profile.
	Baseline string
	// BaselineFingerprint is the artifact's recorded dataset fingerprint.
	BaselineFingerprint string
	Result              *core.Result
}

// baselineLabel renders the artifact provenance, e.g.
// "baseline.json (fingerprint 61af206de350d311)".
func (s Summary) baselineLabel() string {
	if s.BaselineFingerprint == "" {
		return s.Baseline
	}
	return fmt.Sprintf("%s (fingerprint %s)", s.Baseline, s.BaselineFingerprint)
}

// Text renders a terminal-oriented report.
func (s Summary) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system: %s\n", s.SystemName)
	fmt.Fprintf(&b, "malfunction(pass) = %.3f, malfunction(fail) = %.3f, tau = %.2f\n",
		s.PassScore, s.FailScore, s.Tau)
	if s.Baseline != "" {
		fmt.Fprintf(&b, "baseline artifact: %s\n", s.baselineLabel())
	}
	r := s.Result
	if r == nil {
		b.WriteString("no result\n")
		return b.String()
	}
	fmt.Fprintf(&b, "discriminative PVT candidates: %d\n", r.Discriminative)
	fmt.Fprintf(&b, "interventions: %d, runtime: %v\n", r.Interventions, r.Runtime.Round(1000000))
	if st := r.Stats; st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(&b, "engine: cache hits %d / misses %d, parallel batches %d\n",
			st.CacheHits, st.CacheMisses, st.Batches)
		fmt.Fprintf(&b, "oracle latency: %s\n", st.Latency)
	}
	if st := r.Stats; st.Retries+st.TransientFailures+st.DeterministicFailures+st.BreakerTrips > 0 {
		fmt.Fprintf(&b, "oracle faults: %d retries, %d transient failures, %d deterministic failures, %d breaker trips\n",
			st.Retries, st.TransientFailures, st.DeterministicFailures, st.BreakerTrips)
	}
	if len(r.Trace) > 0 {
		b.WriteString("trace:\n")
		for _, step := range r.Trace {
			status := "rejected"
			if step.Accepted {
				status = "ACCEPTED"
			}
			fmt.Fprintf(&b, "  [%s] %s via %s → %.3f\n",
				status, stepPVTs(r, step.PVTs), step.Transform, step.Score)
		}
	}
	if r.Found {
		fmt.Fprintf(&b, "minimal explanation: %s\n", r.ExplanationString())
		if s.Baseline != "" {
			fmt.Fprintf(&b, "violated profiles cite baseline %s\n", s.baselineLabel())
		}
		names, groups := byClass(r.Explanation)
		if len(names) > 0 {
			b.WriteString("root causes by class:\n")
			for _, n := range names {
				fmt.Fprintf(&b, "  %s: %s\n", n, strings.Join(groups[n], ", "))
			}
		}
		fmt.Fprintf(&b, "malfunction after repair: %.3f\n", r.FinalScore)
	} else {
		fmt.Fprintf(&b, "no explanation found (final score %.3f)\n", r.FinalScore)
	}
	return b.String()
}

// Markdown renders an issue-tracker-oriented report.
func (s Summary) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## DataPrism report: %s\n\n", s.SystemName)
	fmt.Fprintf(&b, "| metric | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| malfunction (passing) | %.3f |\n", s.PassScore)
	fmt.Fprintf(&b, "| malfunction (failing) | %.3f |\n", s.FailScore)
	fmt.Fprintf(&b, "| threshold τ | %.2f |\n", s.Tau)
	if s.Baseline != "" {
		fmt.Fprintf(&b, "| baseline artifact | %s |\n", cell(s.baselineLabel()))
	}
	r := s.Result
	if r == nil {
		return b.String()
	}
	fmt.Fprintf(&b, "| discriminative PVTs | %d |\n", r.Discriminative)
	fmt.Fprintf(&b, "| interventions | %d |\n", r.Interventions)
	if st := r.Stats; st.CacheHits+st.CacheMisses > 0 {
		fmt.Fprintf(&b, "| memoized score hits | %d |\n", st.CacheHits)
		fmt.Fprintf(&b, "| parallel batches | %d |\n", st.Batches)
		if st.Latency.Count > 0 {
			fmt.Fprintf(&b, "| mean oracle latency | %v |\n", st.Latency.Mean().Round(time.Microsecond))
		}
	}
	if st := r.Stats; st.Retries+st.TransientFailures+st.DeterministicFailures+st.BreakerTrips > 0 {
		fmt.Fprintf(&b, "| oracle retries | %d |\n", st.Retries)
		fmt.Fprintf(&b, "| transient oracle failures | %d |\n", st.TransientFailures)
		fmt.Fprintf(&b, "| deterministic oracle failures | %d |\n", st.DeterministicFailures)
		fmt.Fprintf(&b, "| circuit-breaker trips | %d |\n", st.BreakerTrips)
	}
	fmt.Fprintf(&b, "| final score | %.3f |\n\n", r.FinalScore)
	if r.Found {
		b.WriteString("### Root causes (minimal explanation)\n\n")
		if s.Baseline != "" {
			fmt.Fprintf(&b, "Violated profiles are cited from baseline artifact %s.\n\n", s.baselineLabel())
		}
		names, groups := byClass(r.Explanation)
		for _, n := range names {
			fmt.Fprintf(&b, "- **%s**\n", n)
			for _, s := range groups[n] {
				fmt.Fprintf(&b, "  - `%s`\n", s)
			}
		}
	} else {
		b.WriteString("**No explanation found** among the discriminative profiles.\n")
	}
	if len(r.Trace) > 0 {
		b.WriteString("\n### Intervention trace\n\n")
		b.WriteString("| # | profiles | transform | score | kept |\n|---|---|---|---|---|\n")
		for i, step := range r.Trace {
			kept := ""
			if step.Accepted {
				kept = "✓"
			}
			fmt.Fprintf(&b, "| %d | %s | %s | %.3f | %s |\n",
				i+1, cell(stepPVTs(r, step.PVTs)), cell(step.Transform), step.Score, kept)
		}
	}
	return b.String()
}
