package engine

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// memStore is an in-memory ScoreStore double recording Save calls.
type memStore struct {
	mu    sync.Mutex
	m     map[uint64]float64
	det   map[uint64]bool
	saves int
}

func newMemStore() *memStore {
	return &memStore{m: make(map[uint64]float64), det: make(map[uint64]bool)}
}

func (s *memStore) Load(fp uint64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[fp]
	return v, ok
}

func (s *memStore) Save(fp uint64, score float64, deterministic bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[fp] = score
	s.det[fp] = deterministic
	s.saves++
}

// TestStoreReadThroughSkipsOracleAndBudget: a persisted score must cost no
// oracle call and no intervention, for batches and baselines alike.
func TestStoreReadThroughSkipsOracleAndBudget(t *testing.T) {
	store := newMemStore()
	d1, d2 := flagData(0.1), flagData(0.2)
	store.m[d1.Fingerprint()] = 0.1

	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{Workers: 1, MaxInterventions: 10, Store: store})

	scores, err := ev.EvalBatch(context.Background(), []*dataset.Dataset{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 0.1 || scores[1] != 0.2 {
		t.Fatalf("scores = %v", scores)
	}
	st := ev.Stats()
	if st.StoreHits != 1 {
		t.Fatalf("store hits = %d, want 1", st.StoreHits)
	}
	if st.Interventions != 1 {
		t.Fatalf("interventions = %d, want 1 (persisted slot is free)", st.Interventions)
	}
	if sys.evals.Load() != 1 {
		t.Fatalf("oracle calls = %d, want 1", sys.evals.Load())
	}
	// The fresh evaluation was written through.
	if v, ok := store.Load(d2.Fingerprint()); !ok || v != 0.2 {
		t.Fatalf("write-through missing: %v, %v", v, ok)
	}
	// A second batch over both is served from the in-memory cache, not the
	// store again.
	if _, err := ev.EvalBatch(context.Background(), []*dataset.Dataset{d1, d2}); err != nil {
		t.Fatal(err)
	}
	if st := ev.Stats(); st.StoreHits != 1 || st.CacheHits != 2 {
		t.Fatalf("second batch stats = %+v, want cache hits", st)
	}
}

// TestStoreBaselineReadWriteThrough: Baseline consults and feeds the store
// like every other path.
func TestStoreBaselineReadWriteThrough(t *testing.T) {
	store := newMemStore()
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{Store: store})
	d := flagData(0.4)

	if s, err := ev.Baseline(context.Background(), d); err != nil || s != 0.4 {
		t.Fatalf("baseline = %v, %v", s, err)
	}
	if v, ok := store.Load(d.Fingerprint()); !ok || v != 0.4 {
		t.Fatalf("baseline not written through: %v, %v", v, ok)
	}

	// A fresh Eval over the same store serves the baseline without the
	// oracle.
	sys2 := &valueSystem{}
	ev2 := New(pipeline.AsFallible(sys2), Config{Store: store})
	if s, err := ev2.Baseline(context.Background(), d); err != nil || s != 0.4 {
		t.Fatalf("restored baseline = %v, %v", s, err)
	}
	if sys2.evals.Load() != 0 {
		t.Fatal("restored baseline still ran the oracle")
	}
	if st := ev2.Stats(); st.StoreHits != 1 {
		t.Fatalf("stats = %+v, want 1 store hit", st)
	}
}

// TestStoreNeverSeesFailures: transient failures and cancellations must not
// be persisted — the cache-poisoning contract extends to disk.
func TestStoreNeverSeesFailures(t *testing.T) {
	store := newMemStore()
	fails := &pipeline.TryFunc{SystemName: "dead", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		return pipeline.ScoreResult{Score: math.NaN(), Err: pipeline.ErrTransient, Transient: true, Attempts: 1}
	}}
	ev := New(fails, Config{Store: store})
	d := flagData(0.0)
	if _, err := ev.Score(context.Background(), d); err == nil {
		t.Fatal("failure expected")
	}
	if _, err := ev.Baseline(context.Background(), flagData(1.0)); err == nil {
		t.Fatal("baseline failure expected")
	}
	if store.saves != 0 {
		t.Fatalf("store saw %d saves from failed evaluations", store.saves)
	}
}

// TestStoreDeterministicFlagPropagates: the crash-on-input classification
// reaches the persistent record.
func TestStoreDeterministicFlagPropagates(t *testing.T) {
	store := newMemStore()
	crash := &pipeline.TryFunc{SystemName: "crasher", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		return pipeline.ScoreResult{Score: 1, Deterministic: true, Attempts: 1}
	}}
	ev := New(crash, Config{Store: store})
	d := flagData(0.0)
	if s, err := ev.Score(context.Background(), d); err != nil || s != 1 {
		t.Fatalf("score = %v, %v", s, err)
	}
	if !store.det[d.Fingerprint()] {
		t.Fatal("deterministic flag lost on the way to the store")
	}
}

// TestStoreHitsRefundNothing: a batch fully served by the store must leave
// the budget untouched and dispatch no jobs.
func TestStoreHitsRefundNothing(t *testing.T) {
	store := newMemStore()
	ds := []*dataset.Dataset{flagData(0.1), flagData(0.2), flagData(0.3)}
	for _, d := range ds {
		store.m[d.Fingerprint()] = d.Num("x", 0)
	}
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{MaxInterventions: 1, Store: store})
	scores, err := ev.EvalBatch(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if scores[i] != d.Num("x", 0) {
			t.Fatalf("scores = %v", scores)
		}
	}
	st := ev.Stats()
	if st.Interventions != 0 || st.StoreHits != 3 || sys.evals.Load() != 0 {
		t.Fatalf("stats = %+v, oracle calls = %d", st, sys.evals.Load())
	}
}
