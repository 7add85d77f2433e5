package core_test

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/scorestore"
	"repro/internal/synth"
)

// countingSystem wraps a System and counts its raw oracle calls.
type countingSystem struct {
	pipeline.System
	calls atomic.Int64
}

func counting(sys pipeline.System) *countingSystem { return &countingSystem{System: sys} }

func (c *countingSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	c.calls.Add(1)
	return c.System.MalfunctionScore(d)
}

func (c *countingSystem) Calls() int { return int(c.calls.Load()) }

// openStore opens a score store rooted in dir for the scenario's oracle.
func openStore(t *testing.T, dir string, sys pipeline.System) *scorestore.Store {
	t.Helper()
	s, err := scorestore.Open(dir, sys.Name(), scorestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResumeWarmStoreZeroOracleCalls is the acceptance bar of the persistent
// score store: a search repeated against the store of a completed run must
// perform zero raw oracle evaluations and still produce the identical
// explanation — every score is served from disk.
func TestResumeWarmStoreZeroOracleCalls(t *testing.T) {
	seed := int64(3)
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
	dir := t.TempDir()

	cold := counting(sc.System)
	store := openStore(t, dir, sc.System)
	e1 := &core.Explainer{System: cold, Tau: 0.05, Seed: seed, Workers: 1, Store: store}
	want, err := e1.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if cold.Calls() == 0 {
		t.Fatal("cold run made no oracle calls")
	}

	// Fresh process image: new oracle counter, reopened store.
	warm := counting(sc.System)
	store2 := openStore(t, dir, sc.System)
	defer store2.Close()
	e2 := &core.Explainer{System: warm, Tau: 0.05, Seed: seed, Workers: 1, Store: store2}
	got, err := e2.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Calls() != 0 {
		t.Fatalf("warm re-run made %d raw oracle calls, want 0", warm.Calls())
	}
	if got.Interventions != 0 {
		t.Fatalf("warm re-run charged %d interventions, want 0", got.Interventions)
	}
	if got.Stats.StoreHits == 0 {
		t.Fatal("warm re-run recorded no store hits")
	}
	if got.ExplanationString() != want.ExplanationString() ||
		got.FinalScore != want.FinalScore || got.InitialScore != want.InitialScore {
		t.Fatalf("warm re-run diverged: %s (%v→%v) vs %s (%v→%v)",
			got.ExplanationString(), got.InitialScore, got.FinalScore,
			want.ExplanationString(), want.InitialScore, want.FinalScore)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("trace length %d vs %d", len(got.Trace), len(want.Trace))
	}
}

// TestResumeKilledSearchReScoresOnlyLostWork simulates a crash: a first run
// is cut off by an exhausted intervention budget, the process "dies" (store
// closed), and a restarted full run against the same store must re-score
// only what the first run never evaluated — total raw oracle calls across
// both runs equal one uninterrupted run's, with zero repeats.
func TestResumeKilledSearchReScoresOnlyLostWork(t *testing.T) {
	seed := int64(5)
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})

	// Reference: the uninterrupted, storeless run.
	ref := counting(sc.System)
	clean := &core.Explainer{System: ref, Tau: 0.05, Seed: seed, Workers: 1}
	want, err := clean.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	full := ref.Calls()
	if full < 4 {
		t.Skipf("scenario solved in %d calls — too small to interrupt", full)
	}

	dir := t.TempDir()
	first := counting(sc.System)
	store := openStore(t, dir, sc.System)
	e1 := &core.Explainer{System: first, Tau: 0.05, Seed: seed, Workers: 1,
		MaxInterventions: full / 2, Store: store}
	if _, err := e1.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail); err == nil {
		t.Fatal("half-budget run unexpectedly completed")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if first.Calls() == 0 || first.Calls() >= full {
		t.Fatalf("interrupted run made %d calls, want within (0, %d)", first.Calls(), full)
	}

	second := counting(sc.System)
	store2 := openStore(t, dir, sc.System)
	defer store2.Close()
	e2 := &core.Explainer{System: second, Tau: 0.05, Seed: seed, Workers: 1, Store: store2}
	got, err := e2.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExplanationString() != want.ExplanationString() || got.FinalScore != want.FinalScore {
		t.Fatalf("resumed run diverged: %s/%v vs %s/%v",
			got.ExplanationString(), got.FinalScore, want.ExplanationString(), want.FinalScore)
	}
	// Zero repeat evaluations: the two runs together cost exactly one
	// uninterrupted run, and the resumed half was served the rest from disk.
	if first.Calls()+second.Calls() != full {
		t.Fatalf("calls %d + %d = %d, want exactly %d (no repeats, no gaps)",
			first.Calls(), second.Calls(), first.Calls()+second.Calls(), full)
	}
	if got.Stats.StoreHits != first.Calls() {
		t.Fatalf("store hits = %d, want all %d scores from the interrupted run",
			got.Stats.StoreHits, first.Calls())
	}
	if got.Interventions != second.Calls() {
		t.Fatalf("interventions = %d, want only the %d fresh scores charged",
			got.Interventions, second.Calls())
	}
}
