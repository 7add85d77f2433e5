package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/transform"
)

// brokenTransform always fails — simulating a transformation whose
// prerequisites the current dataset cannot satisfy.
type brokenTransform struct {
	p profile.Profile
}

func (t *brokenTransform) Name() string                      { return "broken" }
func (t *brokenTransform) Modifies() []string                { return t.p.Attributes() }
func (t *brokenTransform) Coverage(*dataset.Dataset) float64 { return 0.9 }
func (t *brokenTransform) Apply(*dataset.Dataset, *rand.Rand) (*dataset.Dataset, error) {
	return nil, fmt.Errorf("broken transform")
}

func TestGreedySurvivesNaNScores(t *testing.T) {
	// A system that intermittently returns NaN must not be treated as an
	// improvement (NaN < x is false), and the search must terminate.
	sc := synth.New(synth.Options{NumPVTs: 10, NumAttrs: 2, Conjunction: 1, Seed: 31})
	calls := 0
	flaky := &pipeline.Func{SystemName: "flaky", Score: func(d *dataset.Dataset) float64 {
		calls++
		if calls%2 == 0 {
			return math.NaN()
		}
		return sc.System.MalfunctionScore(d)
	}}
	e := &core.Explainer{System: flaky, Tau: 0.05, Seed: 31, MaxInterventions: 100}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil && !errors.Is(err, core.ErrNoExplanation) {
		t.Fatalf("unexpected error: %v", err)
	}
	if err == nil && res.FinalScore > e.Tau && !math.IsNaN(res.FinalScore) {
		t.Errorf("claimed success with score %g", res.FinalScore)
	}
}

func TestGreedySkipsBrokenTransforms(t *testing.T) {
	// A PVT whose only transform errors is skipped; a PVT with a broken
	// first transform falls through to its working second transform.
	sc := synth.New(synth.Options{NumPVTs: 6, NumAttrs: 2, Conjunction: 1, Seed: 32})
	cause := sc.GroundTruth[0][0]
	for i, p := range sc.PVTs {
		if i == cause {
			// Broken transform first; the real one second.
			p.Transforms = append([]transform.Transformation{&brokenTransform{p: p.Profile}}, p.Transforms...)
		} else {
			// Everything else is entirely broken.
			p.Transforms = []transform.Transformation{&brokenTransform{p: p.Profile}}
		}
	}
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 32}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("greedy failed: %v", err)
	}
	if !containsIndex(res.Explanation, cause) {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
}

func TestGroupTestSurvivesBrokenTransforms(t *testing.T) {
	sc := synth.New(synth.Options{NumPVTs: 12, NumAttrs: 3, Conjunction: 1, Seed: 33})
	cause := sc.GroundTruth[0][0]
	for i, p := range sc.PVTs {
		if i != cause {
			p.Transforms = []transform.Transformation{&brokenTransform{p: p.Profile}}
		}
	}
	e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: 33}
	res, err := e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatalf("group test failed: %v", err)
	}
	if !containsIndex(res.Explanation, cause) {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
}

func TestExplainGreedyEmptyCandidates(t *testing.T) {
	sys := &pipeline.Func{SystemName: "s", Score: func(*dataset.Dataset) float64 { return 0.9 }}
	e := &core.Explainer{System: sys, Tau: 0.1, Seed: 34}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), nil, synth.FailingDataset(1))
	if !errors.Is(err, core.ErrNoExplanation) {
		t.Errorf("err = %v", err)
	}
	if res.Interventions != 0 {
		t.Errorf("interventions = %d", res.Interventions)
	}
}

// TestExtendedProfilesEndToEnd drives the full discovery→intervention loop
// through the extension profile classes: the failing dataset violates an FD
// and carries a distribution drift, and the system's malfunction is defined
// directly over those properties.
func TestExtendedProfilesEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 600
	zip := make([]string, n)
	city := make([]string, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			zip[i], city[i] = "01004", "amherst"
		} else {
			zip[i], city[i] = "94107", "sf"
		}
		vals[i] = 50 + 5*rng.NormFloat64()
	}
	pass := dataset.New().
		MustAddCategorical("zip", append([]string(nil), zip...)).
		MustAddCategorical("city", append([]string(nil), city...)).
		MustAddNumeric("v", append([]float64(nil), vals...))

	fail := pass.Clone()
	// Break the FD on 20% of rows and shift the distribution.
	for i := 0; i < n; i += 5 {
		fail.SetStr("city", i, "WRONG")
	}
	fc := fail.MutableColumn("v")
	for k := 0; k < fc.NumChunks(); k++ {
		w := fc.MutableChunk(k)
		for i := range w.Nums {
			w.Nums[i] = w.Nums[i]*2 + 30
		}
	}

	fd := &profile.FuncDep{Det: "zip", Dep: "city"}
	dist := profile.DiscoverDistribution(pass, "v")
	sys := &pipeline.Func{SystemName: "ext", Score: func(d *dataset.Dataset) float64 {
		s := fd.G3(d) + dist.Deviation(d)
		if s > 1 {
			return 1
		}
		return s
	}}
	if sys.MalfunctionScore(pass) > 0.05 {
		t.Fatal("setup: pass should score low")
	}
	if sys.MalfunctionScore(fail) < 0.3 {
		t.Fatal("setup: fail should score high")
	}

	opts := profile.Options{}
	opts.Classes = map[string]bool{"fd": true, "distribution": true}
	e := &core.Explainer{System: sys, Tau: 0.05, Options: &opts, Seed: 35}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(pass, fail), fail)
	if err != nil {
		t.Fatalf("greedy failed: %v", err)
	}
	var hasFD, hasDist bool
	for _, p := range res.Explanation {
		switch p.Profile.Type() {
		case "fd":
			hasFD = true
		case "distribution", "domain":
			hasDist = true
		}
	}
	if !hasFD || !hasDist {
		t.Errorf("explanation %s should cover both injected issues", res.ExplanationString())
	}
	if res.FinalScore > e.Tau {
		t.Errorf("final score = %g", res.FinalScore)
	}
}
