package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// flagData builds a one-column dataset whose single value identifies it.
func flagData(v float64) *dataset.Dataset {
	d := dataset.New()
	d.MustAddNumeric("x", []float64{v})
	return d
}

// valueSystem scores a dataset by its first "x" value and counts raw
// oracle invocations.
type valueSystem struct {
	evals atomic.Int64
	delay time.Duration
}

func (s *valueSystem) Name() string { return "value" }

func (s *valueSystem) MalfunctionScore(ctx context.Context, d *dataset.Dataset) float64 {
	s.evals.Add(1)
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
		}
	}
	return d.Num("x", 0)
}

func TestEvalBatchOrderAndCounters(t *testing.T) {
	for _, workers := range []int{1, 8} {
		sys := &valueSystem{}
		ev := New(pipeline.AsFallible(sys), Config{Workers: workers})
		ds := []*dataset.Dataset{flagData(0.3), flagData(0.7), flagData(0.1), flagData(0.9)}
		scores, err := ev.EvalBatch(context.Background(), ds)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		want := []float64{0.3, 0.7, 0.1, 0.9}
		for i, s := range scores {
			if s != want[i] {
				t.Fatalf("workers=%d: score[%d] = %v, want %v", workers, i, s, want[i])
			}
		}
		st := ev.Stats()
		if st.Interventions != 4 || st.CacheMisses != 4 || st.CacheHits != 0 {
			t.Fatalf("workers=%d: stats = %+v", workers, st)
		}
		if st.Latency.Count != 4 {
			t.Fatalf("workers=%d: latency count = %d", workers, st.Latency.Count)
		}
	}
}

func TestMemoizationAndWithinBatchDedup(t *testing.T) {
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{Workers: 4})
	// Duplicate fingerprints within one batch: one evaluation, one hit.
	scores, err := ev.EvalBatch(context.Background(), []*dataset.Dataset{flagData(0.5), flagData(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 0.5 || scores[1] != 0.5 {
		t.Fatalf("scores = %v", scores)
	}
	// Cross-batch: a pure hit, no oracle call, no intervention.
	if s, err := ev.Score(context.Background(), flagData(0.5)); err != nil || s != 0.5 {
		t.Fatalf("memoized score = %v, %v", s, err)
	}
	st := ev.Stats()
	if st.Interventions != 1 {
		t.Fatalf("interventions = %d, want 1 (cache hits must be free)", st.Interventions)
	}
	if st.CacheHits != 2 {
		t.Fatalf("cache hits = %d, want 2", st.CacheHits)
	}
	if got := sys.evals.Load(); got != 1 {
		t.Fatalf("raw oracle calls = %d, want 1", got)
	}
}

func TestBaselineUncountedButCached(t *testing.T) {
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{MaxInterventions: 5})
	if s, err := ev.Baseline(context.Background(), flagData(0.8)); err != nil || s != 0.8 {
		t.Fatalf("baseline = %v, %v", s, err)
	}
	if st := ev.Stats(); st.Interventions != 0 {
		t.Fatalf("baseline consumed budget: %+v", st)
	}
	// The counted path now hits the cache: still free.
	if s, err := ev.Score(context.Background(), flagData(0.8)); err != nil || s != 0.8 {
		t.Fatalf("score = %v, %v", s, err)
	}
	if st := ev.Stats(); st.Interventions != 0 {
		t.Fatalf("cache hit consumed budget: %+v", st)
	}
}

func TestBudgetTruncationIsPrefixOrdered(t *testing.T) {
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{Workers: 1, MaxInterventions: 2})
	ds := []*dataset.Dataset{flagData(0.1), flagData(0.2), flagData(0.3), flagData(0.4)}
	scores, err := ev.EvalBatch(context.Background(), ds)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if scores[0] != 0.1 || scores[1] != 0.2 {
		t.Fatalf("prefix not evaluated: %v", scores)
	}
	if !math.IsNaN(scores[2]) || !math.IsNaN(scores[3]) {
		t.Fatalf("unaffordable slots must be NaN: %v", scores)
	}
	if !ev.Exhausted() || ev.Remaining() != 0 {
		t.Fatal("budget should be exhausted")
	}
	// Further counted work is refused outright.
	if _, err := ev.Score(context.Background(), flagData(0.9)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-exhaustion err = %v", err)
	}
}

func TestCancellationStopsBatch(t *testing.T) {
	sys := &valueSystem{delay: 5 * time.Millisecond}
	ev := New(pipeline.AsFallible(sys), Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var ds []*dataset.Dataset
	for i := 0; i < 64; i++ {
		ds = append(ds, flagData(float64(i)/100))
	}
	go func() {
		time.Sleep(8 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ev.EvalBatch(ctx, ds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 64 jobs × 5ms at width 2 would be ~160ms sequential-per-worker; the
	// cancel must cut that short by skipping unstarted jobs.
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	if got := sys.evals.Load(); got == 64 {
		t.Fatal("all jobs ran despite cancellation")
	}
}

// expired returns a context whose deadline passed a second ago.
func expired(t *testing.T) context.Context {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

func TestDeadlineGate(t *testing.T) {
	sys := &valueSystem{}
	ev := New(pipeline.AsFallible(sys), Config{})
	_, err := ev.Score(expired(t), flagData(0.5))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if sys.evals.Load() != 0 {
		t.Fatal("evaluation ran past the deadline")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	build := func(workers int) (Stats, []float64) {
		ev := New(pipeline.AsFallible(&valueSystem{}), Config{Workers: workers, MaxInterventions: 40})
		var all []float64
		for round := 0; round < 4; round++ {
			var ds []*dataset.Dataset
			for i := 0; i < 12; i++ {
				// Overlapping values across rounds exercise the cache.
				ds = append(ds, flagData(float64((round*7+i)%20)/20))
			}
			scores, _ := ev.EvalBatch(context.Background(), ds)
			all = append(all, scores...)
		}
		return ev.Stats(), all
	}
	seqStats, seqScores := build(1)
	parStats, parScores := build(8)
	if seqStats.Interventions != parStats.Interventions ||
		seqStats.CacheHits != parStats.CacheHits ||
		seqStats.CacheMisses != parStats.CacheMisses {
		t.Fatalf("counter divergence: seq %+v vs par %+v", seqStats, parStats)
	}
	for i := range seqScores {
		if seqScores[i] != parScores[i] && !(math.IsNaN(seqScores[i]) && math.IsNaN(parScores[i])) {
			t.Fatalf("score divergence at %d: %v vs %v", i, seqScores[i], parScores[i])
		}
	}
	if parStats.Batches == 0 {
		t.Fatal("parallel run recorded no batches")
	}
	if seqStats.Batches != 0 {
		t.Fatal("sequential run should record no parallel batches")
	}
}

// sumSystem scores a dataset by the normalized sum of its "a" column, so
// every cell of every chunk feeds the score.
type sumSystem struct{}

func (sumSystem) Name() string { return "sum" }

func (sumSystem) MalfunctionScore(_ context.Context, d *dataset.Dataset) float64 {
	sum := 0.0
	for _, v := range d.NumericValues("a") {
		sum += v
	}
	return sum / (100 * float64(d.NumRows()))
}

// TestConcurrentFingerprintsSharedChunks scores one batch whose slots share
// storage: clones of one parent that share untouched columns and chunks,
// untouched clones with the parent's content, and the parent's own pointer
// in two slots. The parallel fingerprint phase then fills the same
// per-version digest caches from several goroutines, which -race must find
// clean. Workers 1 and 8 must agree on the scores, on every counter except
// Batches (which records that the pool was used) and on the memo keys.
func TestConcurrentFingerprintsSharedChunks(t *testing.T) {
	const rows, chunk = 4096, 64
	type outcome struct {
		scores []float64
		stats  Stats
		keys   []uint64
	}
	run := func(workers int) outcome {
		// A fresh parent per run, so no digest is cached before the batch.
		parent := dataset.NewChunked(chunk)
		a, b := make([]float64, rows), make([]float64, rows)
		for i := range a {
			a[i], b[i] = float64(i%97), float64(i%89)
		}
		if err := parent.AddNumericColumn("a", a, nil); err != nil {
			t.Fatal(err)
		}
		if err := parent.AddNumericColumn("b", b, nil); err != nil {
			t.Fatal(err)
		}
		batch := []*dataset.Dataset{parent}
		for k := 0; k < 15; k++ {
			c := parent.Clone()
			switch k % 3 {
			case 0: // one dirty chunk of a; b and a's other chunks shared
				c.SetNum("a", (k*chunk+3)%rows, 1e3)
			case 1: // a shared whole, one dirty chunk of b
				c.SetNum("b", (k*chunk+5)%rows, -1)
			}
			batch = append(batch, c)
		}
		batch = append(batch, parent)
		ev := New(pipeline.AsFallible(sumSystem{}), Config{Workers: workers})
		scores, err := ev.EvalBatch(context.Background(), batch)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st := ev.Stats()
		st.Batches = 0
		st.Latency = Histogram{Count: st.Latency.Count}
		keys := make([]uint64, 0, len(ev.cache))
		for fp := range ev.cache {
			keys = append(keys, fp)
		}
		slices.Sort(keys)
		return outcome{scores: scores, stats: st, keys: keys}
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Workers 1 and 8 disagree:\n seq %+v\n par %+v", seq, par)
	}
	// Ten content-changing clones plus the parent's content: eleven
	// evaluations; the other six slots are within-batch duplicates.
	if seq.stats.Interventions != 11 || seq.stats.CacheHits != 6 || len(seq.keys) != 11 {
		t.Fatalf("stats %+v with %d memo keys, want 11 evaluations, 6 hits, 11 keys", seq.stats, len(seq.keys))
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.observe(50 * time.Microsecond)
	h.observe(5 * time.Millisecond)
	h.observe(2 * time.Second)
	if h.Count != 3 || h.buckets[0] != 1 || h.buckets[2] != 1 || h.buckets[5] != 1 {
		t.Fatalf("histogram = %+v", h)
	}
	if h.max != 2*time.Second {
		t.Fatalf("max = %v", h.max)
	}
	if s := h.String(); s == "" || s == "no oracle calls" {
		t.Fatalf("string = %q", s)
	}
}

func TestLegacyAdapter(t *testing.T) {
	legacy := &pipeline.Func{SystemName: "legacy", Score: func(d *dataset.Dataset) float64 { return d.Num("x", 0) }}
	ev := New(pipeline.AsFallible(pipeline.AsContext(legacy)), Config{Workers: 4})
	scores, err := ev.EvalBatch(context.Background(), []*dataset.Dataset{flagData(0.25), flagData(0.75)})
	if err != nil || scores[0] != 0.25 || scores[1] != 0.75 {
		t.Fatalf("adapter scores = %v, %v", scores, err)
	}
}
