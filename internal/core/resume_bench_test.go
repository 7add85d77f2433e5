package core_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/scorestore"
	"repro/internal/synth"
)

// benchOracleCost models the paper's premise — the system under debugging
// is an expensive black box — so the benchmark measures oracle economics,
// not search-bookkeeping noise.
const benchOracleCost = 2 * time.Millisecond

// slowSystem charges a fixed latency per evaluation, like an external
// scoring process would.
type slowSystem struct {
	pipeline.System
}

func (s *slowSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	time.Sleep(benchOracleCost)
	return s.System.MalfunctionScore(d)
}

// BenchmarkWarmCacheRerun measures the persistent score store's headline
// effect: re-running a completed search. The cold case pays every oracle
// evaluation at benchOracleCost; the warm case replays the same search
// against the store of a finished run and must perform zero raw oracle
// evaluations.
func BenchmarkWarmCacheRerun(b *testing.B) {
	seed := int64(3)
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
	slow := &slowSystem{System: sc.System}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := &core.Explainer{System: slow, Tau: 0.05, Seed: seed, Workers: 1}
			if _, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seedStore, err := scorestore.Open(dir, slow.Name(), scorestore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		e := &core.Explainer{System: slow, Tau: 0.05, Seed: seed, Workers: 1, Store: seedStore}
		if _, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail); err != nil {
			b.Fatal(err)
		}
		if err := seedStore.Close(); err != nil {
			b.Fatal(err)
		}

		oracle := counting(slow)
		store, err := scorestore.Open(dir, slow.Name(), scorestore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := &core.Explainer{System: oracle, Tau: 0.05, Seed: seed, Workers: 1, Store: store}
			if _, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if oracle.Calls() != 0 {
			b.Fatalf("warm reruns made %d raw oracle calls, want 0", oracle.Calls())
		}
	})
}
