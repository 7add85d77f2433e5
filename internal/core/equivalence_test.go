package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/workload"
)

// searchSignature captures everything class selection must preserve:
// the discriminative PVT set (strings, in order), the minimal explanation,
// the intervention count, and the final score.
func searchSignature(t *testing.T, sys pipeline.System, tau float64, pass, fail *dataset.Dataset, opts profile.Options, workers int) string {
	t.Helper()
	opts.Workers = workers
	pvts := core.DiscoverPVTs(pass, fail, opts)
	keys := make([]string, len(pvts))
	for i, p := range pvts {
		keys[i] = p.String()
	}
	e := &core.Explainer{System: sys, Tau: tau, Seed: 7, Options: &opts, Workers: workers}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(pass, fail), fail)
	if err != nil && !errors.Is(err, core.ErrNoExplanation) {
		t.Fatalf("search failed: %v", err)
	}
	return fmt.Sprintf("pvts=%s\nexpl=%s\ninterventions=%d\nfinal=%.12f\nfound=%v",
		strings.Join(keys, ";"), res.ExplanationString(), res.Interventions, res.FinalScore, res.Found)
}

// TestClassesSpellingsEquivalent pins the contract of the one remaining
// class-selection surface: logically equal Options.Classes spellings —
// sparse overrides on top of the registry defaults versus an exhaustive
// map naming every class explicitly — must stay byte-identical through the
// full search (same discriminative PVTs, same explanation, same
// intervention count, same final score), at any worker count.
func TestClassesSpellingsEquivalent(t *testing.T) {
	const rows = 300

	// exhaustive expands a sparse Classes override into the full effective
	// class set, naming every registered class explicitly.
	exhaustive := func(o *profile.Options) {
		full := make(map[string]bool)
		for _, name := range o.EnabledClasses() {
			full[name] = true
		}
		for _, c := range profile.Discoverers() {
			if !full[c.Name] {
				full[c.Name] = false
			}
		}
		o.Classes = full
	}

	cases := []struct {
		name   string
		load   func() (pipeline.System, float64, *dataset.Dataset, *dataset.Dataset, profile.Options)
		sparse func(o *profile.Options)
	}{
		{
			name: "sentiment",
			load: func() (pipeline.System, float64, *dataset.Dataset, *dataset.Dataset, profile.Options) {
				s := workload.NewSentimentScenario(rows, 1)
				return s.System, s.Tau, s.Pass, s.Fail, s.Options
			},
			sparse: func(o *profile.Options) {
				o.Classes = map[string]bool{"distribution": true, "fd": true}
			},
		},
		{
			name: "income",
			load: func() (pipeline.System, float64, *dataset.Dataset, *dataset.Dataset, profile.Options) {
				s := workload.NewIncomeScenario(rows, 1)
				return s.System, s.Tau, s.Pass, s.Fail, s.Options
			},
			sparse: func(o *profile.Options) {
				o.Classes = map[string]bool{"indep-causal": true, "unique": true}
			},
		},
		{
			name: "cardio",
			load: func() (pipeline.System, float64, *dataset.Dataset, *dataset.Dataset, profile.Options) {
				s := workload.NewCardioScenario(rows, 1)
				return s.System, s.Tau, s.Pass, s.Fail, s.Options
			},
			sparse: func(o *profile.Options) {
				o.Classes = map[string]bool{"selectivity": false}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, tau, pass, fail, base := tc.load()
			for _, workers := range []int{1, 8} {
				sparseOpts := base
				tc.sparse(&sparseOpts)
				fullOpts := sparseOpts
				exhaustive(&fullOpts)
				ssig := searchSignature(t, sys, tau, pass, fail, sparseOpts, workers)
				fsig := searchSignature(t, sys, tau, pass, fail, fullOpts, workers)
				if ssig != fsig {
					t.Errorf("workers=%d: sparse and exhaustive Classes spellings diverge\nsparse:\n%s\nexhaustive:\n%s",
						workers, ssig, fsig)
				}
				if workers == 1 {
					// The two worker counts must agree with each other too.
					if w8 := searchSignature(t, sys, tau, pass, fail, sparseOpts, 8); w8 != ssig {
						t.Errorf("worker counts diverge\nworkers=1:\n%s\nworkers=8:\n%s", ssig, w8)
					}
				}
			}
		})
	}
}
