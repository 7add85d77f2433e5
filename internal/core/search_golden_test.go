package core_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/search.golden.json from the current build")

// searchGolden pins every search's results on the inputs of searchInputs.
const searchGolden = "testdata/search.golden.json"

// searchInput is one problem every search of TestSearchResultsGolden runs on.
type searchInput struct {
	name string
	ctx  context.Context
	// system builds a fresh scorer per run, so a breaker's state does not
	// carry from one search to the next.
	system func() pipeline.System
	// fallible, when set, replaces system.
	fallible   func() pipeline.FallibleSystem
	tau        float64
	seed       int64
	budget     int // 0: each search's default
	pvts       []*core.PVT
	pass, fail *dataset.Dataset
}

// searchInputs returns the golden file's inputs: small synth instances with
// conjunctive and disjunctive causes, a 40-PVT instance under two budgets
// too small for it, the edge cases every search must handle, and the three
// Figure 7 case studies at 300 rows.
func searchInputs() []searchInput {
	var out []searchInput
	fromSynth := func(name string, opts synth.Options) searchInput {
		sc := synth.New(opts)
		// Synth instances come without a passing dataset: the failing one
		// with every flag cleared is the decision tree's passing example.
		pass := core.ComposeAll(sc.Fail, sc.PVTs, nil, rand.New(rand.NewSource(opts.Seed)))
		return searchInput{
			name:   name,
			ctx:    context.Background(),
			system: func() pipeline.System { return sc.System },
			tau:    0.05,
			seed:   opts.Seed,
			pvts:   sc.PVTs,
			pass:   pass,
			fail:   sc.Fail,
		}
	}
	for _, c := range []struct {
		name string
		opts synth.Options
	}{
		{"synth-single", synth.Options{NumPVTs: 12, NumAttrs: 4, Conjunction: 1, Seed: 11}},
		{"synth-conj2", synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, Seed: 12}},
		{"synth-conj3", synth.Options{NumPVTs: 20, NumAttrs: 5, Conjunction: 3, Seed: 13}},
		{"synth-disj2", synth.Options{NumPVTs: 12, NumAttrs: 6, Disjunction: 2, Seed: 14}},
		{"synth-disj3", synth.Options{NumPVTs: 24, NumAttrs: 8, Disjunction: 3, Seed: 15}},
		{"synth-conj4-wide", synth.Options{NumPVTs: 30, NumAttrs: 30, Conjunction: 4, Seed: 16}},
	} {
		out = append(out, fromSynth(c.name, c.opts))
	}
	for _, budget := range []int{7, 25} {
		in := fromSynth(fmt.Sprintf("synth-40x6-budget%d", budget), synth.Options{NumPVTs: 40, NumAttrs: 40, Conjunction: 6, Seed: 29})
		in.budget = budget
		out = append(out, in)
	}

	cancelled := fromSynth("cancelled", synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, Seed: 12})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled.ctx = ctx
	empty := fromSynth("no-candidates", synth.Options{NumPVTs: 12, NumAttrs: 4, Conjunction: 1, Seed: 11})
	empty.pvts = nil
	passing := fromSynth("already-passing", synth.Options{NumPVTs: 12, NumAttrs: 4, Conjunction: 1, Seed: 11})
	passing.tau = 1
	down := fromSynth("breaker-open", synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, Seed: 12})
	down.system = nil
	down.fallible = func() pipeline.FallibleSystem {
		return &pipeline.Breaker{FailureThreshold: 1, System: &pipeline.TryFunc{
			SystemName: "unreachable",
			Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
				return pipeline.ScoreResult{Err: fmt.Errorf("scorer unreachable: %w", pipeline.ErrTransient), Attempts: 1}
			},
		}}
	}
	out = append(out, cancelled, empty, passing, down)

	type caseStudy struct {
		pass, fail *dataset.Dataset
		sys        pipeline.System
		tau        float64
		opts       profile.Options
	}
	sentiment := workload.NewSentimentScenario(300, 4)
	income := workload.NewIncomeScenario(300, 28)
	cardio := workload.NewCardioScenario(300, 4)
	for _, c := range []struct {
		name string
		cs   caseStudy
	}{
		{"sentiment", caseStudy{sentiment.Pass, sentiment.Fail, sentiment.System, sentiment.Tau, sentiment.Options}},
		{"income", caseStudy{income.Pass, income.Fail, income.System, income.Tau, income.Options}},
		{"cardio", caseStudy{cardio.Pass, cardio.Fail, cardio.System, cardio.Tau, cardio.Options}},
	} {
		opts := c.cs.opts
		opts.Workers = 1
		sys := c.cs.sys
		out = append(out, searchInput{
			name:   c.name,
			ctx:    context.Background(),
			system: func() pipeline.System { return sys },
			tau:    c.cs.tau,
			seed:   4,
			pvts:   (&core.Explainer{Options: &opts}).Candidates(c.cs.pass, c.cs.fail),
			pass:   c.cs.pass,
			fail:   c.cs.fail,
		})
	}
	return out
}

// explainer configures a search on in with two workers, so the engine's
// batch count does not depend on the machine. Without an input budget,
// the baselines get the 100,000 interventions experiments.runAll gives
// them, and DataPrism's searches the default.
func (in searchInput) explainer(baseline bool) *core.Explainer {
	e := &core.Explainer{Tau: in.tau, Seed: in.seed, MaxInterventions: in.budget, Workers: 2}
	if baseline && in.budget == 0 {
		e.MaxInterventions = 100000
	}
	if in.fallible != nil {
		e.FallibleSystem = in.fallible()
	} else {
		e.System = in.system()
	}
	return e
}

// goldenSearches are the six searches of the paper's evaluation.
var goldenSearches = []struct {
	name     string
	baseline bool
	run      func(e *core.Explainer, in searchInput) (*core.Result, error)
}{
	{"GRD", false, func(e *core.Explainer, in searchInput) (*core.Result, error) {
		return e.ExplainGreedyPVTsContext(in.ctx, in.pvts, in.fail)
	}},
	{"GT", false, func(e *core.Explainer, in searchInput) (*core.Result, error) {
		return e.ExplainGroupTestPVTsContext(in.ctx, in.pvts, in.fail)
	}},
	{"DT", false, func(e *core.Explainer, in searchInput) (*core.Result, error) {
		return e.ExplainWithDecisionTreePVTsContext(in.ctx, in.pvts, []*dataset.Dataset{in.pass}, in.fail)
	}},
	{"BugDoc", true, func(e *core.Explainer, in searchInput) (*core.Result, error) {
		return e.ExplainBugDocPVTsContext(in.ctx, in.pvts, in.fail)
	}},
	{"Anchor", true, func(e *core.Explainer, in searchInput) (*core.Result, error) {
		return e.ExplainAnchorPVTsContext(in.ctx, in.pvts, in.fail)
	}},
	{"GrpTest", true, func(e *core.Explainer, in searchInput) (*core.Result, error) {
		e.RandomBisection = true
		return e.ExplainGroupTestPVTsContext(in.ctx, in.pvts, in.fail)
	}},
}

// goldenStep is one trace step: PVT indices, transformation, score bits and
// whether the step was accepted.
type goldenStep struct {
	PVTs      []int  `json:"p"`
	Transform string `json:"t"`
	Score     uint64 `json:"s"`
	Accepted  bool   `json:"a"`
}

// goldenRun is one search's result as the golden file records it: scores as
// float bits, the repaired dataset as its fingerprint, and the engine's
// counters without the latency histogram.
type goldenRun struct {
	Input          string       `json:"input"`
	Search         string       `json:"search"`
	Found          bool         `json:"found"`
	Explanation    string       `json:"explanation"`
	Interventions  int          `json:"interventions"`
	Discriminative int          `json:"discriminative"`
	InitialScore   uint64       `json:"initial"`
	FinalScore     uint64       `json:"final"`
	Transformed    uint64       `json:"transformed"`
	Stats          engine.Stats `json:"stats"`
	Err            string       `json:"err"`
	Trace          []goldenStep `json:"trace"`
}

func recordRun(input, search string, res *core.Result, err error) goldenRun {
	r := goldenRun{Input: input, Search: search}
	if err != nil {
		r.Err = err.Error()
	}
	if res == nil {
		return r
	}
	r.Found = res.Found
	r.Explanation = res.ExplanationString()
	r.Interventions = res.Interventions
	r.Discriminative = res.Discriminative
	r.InitialScore = math.Float64bits(res.InitialScore)
	r.FinalScore = math.Float64bits(res.FinalScore)
	if res.Transformed != nil {
		r.Transformed = res.Transformed.Fingerprint()
	}
	stats := res.Stats
	stats.Latency = engine.Histogram{}
	r.Stats = stats
	for _, s := range res.Trace {
		r.Trace = append(r.Trace, goldenStep{s.PVTs, s.Transform, math.Float64bits(s.Score), s.Accepted})
	}
	return r
}

// TestSearchResultsGolden runs every search on every input and compares
// each result — found, explanation, interventions, scores as bits, the
// repaired dataset's fingerprint, trace, engine counters and error text —
// with the pinned golden file, one line per run. Regenerate it with
// -update.
func TestSearchResultsGolden(t *testing.T) {
	var lines []string
	for _, in := range searchInputs() {
		for _, s := range goldenSearches {
			res, err := s.run(in.explainer(s.baseline), in)
			line, mErr := json.Marshal(recordRun(in.name, s.name, res, err))
			if mErr != nil {
				t.Fatal(mErr)
			}
			lines = append(lines, string(line))
		}
	}
	data := []byte("[\n" + strings.Join(lines, ",\n") + "\n]\n")
	if *update {
		if err := os.MkdirAll(filepath.Dir(searchGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGolden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(searchGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if string(want) == string(data) {
		return
	}
	// Report runs by input and search, so one added run does not show as
	// every later line differing.
	key := func(line string) string {
		if i := strings.Index(line, `,"found"`); i >= 0 {
			return line[:i]
		}
		return line
	}
	wantRuns := make(map[string]string)
	for _, line := range strings.Split(string(want), "\n") {
		wantRuns[key(line)] = line
	}
	gotRuns := make(map[string]bool)
	for _, line := range lines {
		gotRuns[key(line)] = true
		if w, ok := wantRuns[key(line)]; !ok {
			t.Errorf("run not in the golden file: %s", line)
		} else if w != line && w != line+"," {
			t.Errorf("run differs:\n got %s\nwant %s", line, w)
		}
	}
	for _, line := range strings.Split(string(want), "\n") {
		if strings.HasPrefix(line, "{") && !gotRuns[key(line)] {
			t.Errorf("golden run not made: %s", line)
		}
	}
	if !t.Failed() {
		t.Errorf("runs match, but not in the golden file's order")
	}
}
