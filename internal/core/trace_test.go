package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// traceKey canonicalizes a step's PVT ids as a set.
func traceKey(ids []int) string {
	s := slices.Clone(ids)
	slices.Sort(s)
	return fmt.Sprint(s)
}

// checkTrace asserts the id-keyed trace invariants of one search result:
// the result carries the caller's candidate slice, Names renders every
// candidate as its String, every step id indexes the candidates, a
// group-testing bisection records two disjoint sibling groups whose union
// is the whole candidate set or an earlier group, and every other step
// (a greedy intervention or a make-minimal drop check) holds one id.
func checkTrace(t *testing.T, name string, res *core.Result, pvts []*core.PVT) {
	t.Helper()
	if len(res.Candidates) != len(pvts) || &res.Candidates[0] != &pvts[0] {
		t.Fatalf("%s: Candidates is not the caller's slice", name)
	}
	all := make([]int, len(pvts))
	for i := range all {
		all[i] = i
	}
	for i, s := range res.Names(all) {
		if want := pvts[i].String(); s != want {
			t.Fatalf("%s: Names()[%d] = %q, want %q", name, i, s, want)
		}
	}
	groups := map[string]bool{traceKey(all): true}
	for i := 0; i < len(res.Trace); i++ {
		step := res.Trace[i]
		for _, id := range step.PVTs {
			if id < 0 || id >= len(pvts) {
				t.Fatalf("%s: step %d id %d outside the %d candidates", name, i, id, len(pvts))
			}
		}
		if step.Transform != "group" {
			if len(step.PVTs) != 1 {
				t.Errorf("%s: step %d (%s) holds %d ids, want 1", name, i, step.Transform, len(step.PVTs))
			}
			continue
		}
		// Synth systems never fail a measurement, so both halves of every
		// bisection are scored and logged back to back.
		if i+1 >= len(res.Trace) || res.Trace[i+1].Transform != "group" {
			t.Fatalf("%s: group step %d has no sibling", name, i)
		}
		x1, x2 := step.PVTs, res.Trace[i+1].PVTs
		i++
		for _, id := range x1 {
			if slices.Contains(x2, id) {
				t.Fatalf("%s: sibling groups at step %d share PVT %d", name, i, id)
			}
		}
		if union := traceKey(append(slices.Clone(x1), x2...)); !groups[union] {
			t.Fatalf("%s: sibling groups at step %d split neither all candidates nor an earlier group", name, i)
		}
		groups[traceKey(x1)] = true
		groups[traceKey(x2)] = true
	}
}

// TestTraceRecordsCandidateIDs runs GRD, GT and GT with random bisection
// on small instances of both Figure 8 shapes (8a: eight PVTs per
// attribute, 8b: one attribute per PVT) with conjunctive and disjunctive
// root causes, and checks the trace invariants of each result.
func TestTraceRecordsCandidateIDs(t *testing.T) {
	shapes := []struct {
		name        string
		pvts, attrs int
	}{{"8a", 80, 10}, {"8b", 64, 64}}
	for _, sh := range shapes {
		for _, cause := range []string{"conjunctive", "disjunctive"} {
			for seed := int64(0); seed < 3; seed++ {
				opts := synth.Options{NumPVTs: sh.pvts, NumAttrs: sh.attrs, Seed: seed, CauseTopBenefit: true}
				if cause == "conjunctive" {
					opts.Conjunction = 3
				} else {
					opts.Disjunction = 3
				}
				sc := synth.New(opts)
				for _, algo := range []string{"grd", "gt", "gt-random"} {
					name := fmt.Sprintf("%s/%s/seed%d/%s", sh.name, cause, seed, algo)
					e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, RandomBisection: algo == "gt-random"}
					var res *core.Result
					var err error
					if algo == "grd" {
						res, err = e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
					} else {
						res, err = e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(res.Trace) == 0 {
						t.Fatalf("%s: empty trace", name)
					}
					if algo != "grd" && res.Trace[0].Transform != "group" {
						t.Fatalf("%s: first step is %q, want a group", name, res.Trace[0].Transform)
					}
					checkTrace(t, name, res, sc.PVTs)
				}
			}
		}
	}
}

// TestDecisionTreeTraceRecordsConjunctionIDs checks that the decision
// tree's conjunction steps name their PVTs by candidate id. Its examples
// repair each PVT of the ground-truth conjunction alone (each still fails)
// and all of them together (which passes).
func TestDecisionTreeTraceRecordsConjunctionIDs(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 6, NumAttrs: 3, Conjunction: 2, Seed: 3})
	rng := rand.New(rand.NewSource(3))
	var examples []*dataset.Dataset
	var disjunct []*core.PVT
	for _, i := range sc.GroundTruth[0] {
		examples = append(examples, core.ComposeAll(sc.Fail, sc.PVTs[i:i+1], nil, rng))
		disjunct = append(disjunct, sc.PVTs[i])
	}
	examples = append(examples, core.ComposeAll(sc.Fail, disjunct, nil, rng))
	for i, d := range examples {
		want := i == len(examples)-1
		if got := sc.System.MalfunctionScore(d) <= 0.05; got != want {
			t.Fatalf("example %d passes = %v, want %v", i, got, want)
		}
	}
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 3}
	res, err := e.ExplainWithDecisionTreePVTsContext(context.Background(), sc.PVTs, examples, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	conj := 0
	for i, step := range res.Trace {
		if len(step.PVTs) == 0 {
			t.Errorf("step %d (%s) names no PVT", i, step.Transform)
		}
		for _, id := range step.PVTs {
			if id < 0 || id >= len(sc.PVTs) {
				t.Fatalf("step %d id %d outside the %d candidates", i, id, len(sc.PVTs))
			}
		}
		if step.Transform == "decision-tree conjunction" {
			conj++
		}
	}
	if conj == 0 {
		t.Error("no conjunction step in the trace")
	}
}
