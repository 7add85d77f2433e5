// Package engine is the shared evaluation substrate behind every root-cause
// search. The paper's cost model is oracle calls: DataPrismGRD (Algorithm 1),
// DataPrismGT (Algorithms 2–3), and the BugDoc/Anchor/GrpTest baselines are
// all bottlenecked on the malfunction score. Instead of each algorithm
// driving the oracle ad hoc — budgets threaded as raw counters, strictly
// sequential evaluation, duplicate datasets re-scored from scratch — the
// engine centralizes:
//
//   - context threading: every evaluation observes a context.Context, so
//     searches honor cancellation and deadlines;
//   - a bounded worker pool (Workers, default GOMAXPROCS) behind EvalBatch,
//     which evaluates a candidate set concurrently yet returns
//     deterministically ordered scores;
//   - score memoization keyed by Dataset.Fingerprint, so identical
//     transformed datasets cost one oracle call ever — cache hits do not
//     consume the intervention budget;
//   - error-aware scoring over pipeline.FallibleSystem: a measurement
//     failure (timeout, fork error, cancellation) is never confused with a
//     malfunction score, is never memoized, and refunds the intervention
//     budget — only evaluations that produced a real score count;
//   - a unified budget and stats object (intervention count, cache
//     hit/miss counters, retry/failure counters, parallel-batch count,
//     per-call latency histogram).
//
// Determinism contract: callers keep all randomness and dataset composition
// on their own goroutine; the engine only parallelizes pure steps — a
// batch's fingerprints, then its scoring — each writing its own slot. It
// dedupes within a batch by fingerprint and truncates to budget serially,
// over the deterministic first-occurrence order of unique datasets. Batch
// slots may share a dataset or its chunks: concurrent fingerprints only
// fill the same per-version digest caches with the same values. The result —
// scores, counted interventions, cache behavior — is therefore identical
// whether Workers is 1 or 16, including under fault schedules keyed on
// dataset fingerprints (pipeline.FaultInjector).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// ErrBudgetExhausted is returned by Score and EvalBatch when the
// intervention budget does not cover every requested evaluation. EvalBatch
// still returns the scores it could afford (unevaluated slots are NaN).
var ErrBudgetExhausted = errors.New("engine: intervention budget exhausted")

// ScoreStore is the persistent, cross-run half of the memo cache: a
// crash-safe score archive keyed by dataset fingerprint (scorestore.Store
// implements it). The engine consults it read-through before enqueueing a
// batch slot — a persisted score costs no oracle call and no intervention
// budget, so a re-run or resumed search never repeats an evaluation — and
// writes every fresh, trustworthy score through. Failed measurements are
// never saved, mirroring the in-memory cache-poisoning contract.
// Implementations must be safe for concurrent use and must never fail the
// caller: Save swallows I/O errors (a degraded disk degrades the cache,
// not the search).
type ScoreStore interface {
	// Load returns the persisted score for a fingerprint.
	Load(fp uint64) (float64, bool)
	// Save persists one trustworthy score; deterministic marks the extreme
	// crash-on-input malfunction.
	Save(fp uint64, score float64, deterministic bool)
}

// Config parameterizes an Eval.
type Config struct {
	// Workers bounds concurrent malfunction evaluations. Zero means
	// GOMAXPROCS; one forces fully sequential, in-line evaluation.
	Workers int
	// MaxInterventions caps counted oracle calls; zero means unlimited.
	MaxInterventions int
	// Store, when set, backs the in-memory memo cache with a persistent
	// score archive consulted before any oracle call and updated after
	// every successful one.
	Store ScoreStore
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// Interventions is the number of counted oracle evaluations — the
	// paper's cost metric. Cache hits are free, and evaluations that never
	// produced a score (transient failure, cancellation, open breaker) are
	// refunded: failed attempts do not count as interventions.
	Interventions int
	// CacheHits / CacheMisses count memoized-score lookups. A duplicate
	// dataset inside one batch counts as a hit: it is evaluated once.
	CacheHits, CacheMisses int
	// StoreHits counts scores served from the persistent ScoreStore — the
	// evaluations a re-run or resumed search did not repeat. Like cache
	// hits, they consume no intervention budget. (A store hit is not also
	// counted as a CacheHit, though the score then seeds the in-memory
	// cache and later lookups hit there.)
	StoreHits int
	// Batches counts EvalBatch calls that dispatched more than one
	// evaluation to the worker pool.
	Batches int
	// Retries counts oracle attempts beyond the first across all
	// evaluations — the work a pipeline.Retry wrapper performed.
	Retries int
	// TransientFailures counts evaluations that ended in a transient
	// measurement failure after any retries: no score was produced and the
	// intervention budget was refunded.
	TransientFailures int
	// DeterministicFailures counts evaluations whose failure is
	// deterministic in the data or configuration: the scorer crashed on
	// the input (recorded as score 1) or failed permanently (no score).
	DeterministicFailures int
	// BreakerTrips is how many times the circuit breaker opened (zero
	// when no pipeline.Breaker wraps the system).
	BreakerTrips int
	// Fleet snapshots the remote oracle fleet's counters when the system
	// chain exposes the pipeline.FleetReporter capability (zero value —
	// Workers 0 — when evaluation is purely local).
	Fleet pipeline.FleetStats
	// Latency is the per-oracle-call latency histogram.
	Latency Histogram
}

// Failures sums the evaluations that did not produce a trustworthy,
// well-behaved score.
func (s Stats) Failures() int { return s.TransientFailures + s.DeterministicFailures }

// Eval is the evaluation substrate: a context-aware, error-aware oracle
// with a worker pool, a memoized score cache, and a unified intervention
// budget. Safe for use from a single search goroutine; the internal pool
// fans evaluations out and joins them before returning.
type Eval struct {
	sys     pipeline.FallibleSystem
	workers int
	max     int
	store   ScoreStore

	mu    sync.Mutex
	cache map[uint64]float64
	stats Stats
}

// New builds an Eval over an error-aware system. A plain scorer enters
// through pipeline.AsFallible, which discards a score computed under a
// cancelled context instead of caching it.
func New(sys pipeline.FallibleSystem, cfg Config) *Eval {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Eval{
		sys:     sys,
		workers: w,
		max:     cfg.MaxInterventions,
		store:   cfg.Store,
		cache:   make(map[uint64]float64),
	}
}

// Stats returns a snapshot of the counters.
func (ev *Eval) Stats() Stats {
	ev.mu.Lock()
	st := ev.stats
	ev.mu.Unlock()
	if tc, ok := ev.sys.(pipeline.TripCounter); ok {
		st.BreakerTrips = tc.BreakerTrips()
	}
	if fr, ok := ev.sys.(pipeline.FleetReporter); ok {
		st.Fleet = fr.FleetSnapshot()
	}
	return st
}

// Remaining reports how many counted evaluations the budget still covers
// (math.MaxInt when unlimited).
func (ev *Eval) Remaining() int {
	if ev.max <= 0 {
		return math.MaxInt
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if r := ev.max - ev.stats.Interventions; r > 0 {
		return r
	}
	return 0
}

// Exhausted reports whether the intervention budget is spent.
func (ev *Eval) Exhausted() bool { return ev.Remaining() == 0 }

// Fatal reports whether an evaluation error must abort a search rather
// than be skipped like an unevaluated slot: context cancellation and
// deadlines end the whole run, and an open circuit breaker means every
// further oracle call would fail fast — the search should surface it
// instead of burning through its candidate list scorelessly. Budget
// exhaustion and per-slot measurement failures are not fatal.
func Fatal(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, pipeline.ErrBreakerOpen))
}

// Baseline scores d without counting an intervention — the m_S(D_pass) /
// m_S(D_fail) measurements that precede any search. The score still lands
// in the memo cache. Like every counted path it is gated: a done context
// (cancelled or past its deadline) refuses the oracle call, and a failed
// measurement returns its error with a NaN score and caches nothing.
func (ev *Eval) Baseline(ctx context.Context, d *dataset.Dataset) (float64, error) {
	fp := d.Fingerprint()
	ev.mu.Lock()
	if s, ok := ev.cache[fp]; ok {
		ev.stats.CacheHits++
		ev.mu.Unlock()
		return s, nil
	}
	if ev.store != nil {
		if s, ok := ev.store.Load(fp); ok {
			ev.cache[fp] = s
			ev.stats.StoreHits++
			ev.mu.Unlock()
			return s, nil
		}
	}
	ev.mu.Unlock()
	if err := ev.gate(ctx); err != nil {
		return math.NaN(), err
	}
	ev.mu.Lock()
	ev.stats.CacheMisses++
	ev.mu.Unlock()
	r := ev.evalOne(ctx, d)
	if r.Err != nil {
		return math.NaN(), r.Err
	}
	ev.mu.Lock()
	ev.cache[fp] = r.Score
	if ev.store != nil {
		ev.store.Save(fp, r.Score, r.Deterministic)
	}
	ev.mu.Unlock()
	return r.Score, nil
}

// Score is a single counted evaluation: one intervention in the paper's
// cost model, unless the score is already memoized. It returns
// ErrBudgetExhausted (score NaN) when the budget is spent, the context's
// error when ctx is done, or the slot's own measurement error when the
// evaluation failed.
func (ev *Eval) Score(ctx context.Context, d *dataset.Dataset) (float64, error) {
	scores, errs, err := ev.EvalBatchErrs(ctx, []*dataset.Dataset{d})
	if err == nil {
		err = errs[0]
	}
	return scores[0], err
}

// EvalBatch evaluates a candidate set, fanning the uncached, unique
// datasets out to the worker pool, and returns scores in input order.
// Slots that could not be evaluated — budget exhausted, context done,
// measurement failed — hold math.NaN(); EvalBatchErrs additionally reports
// why per slot. The batch structure seen by the budget and the cache is
// independent of Workers: duplicates within the batch are detected by
// fingerprint and evaluated once, and when the remaining budget covers only
// a prefix of the unique misses, that prefix is chosen in first-occurrence
// order. The returned error is nil, ErrBudgetExhausted, the context error
// if ctx was done before the batch completed, or pipeline.ErrBreakerOpen
// when the circuit breaker rejected every evaluation the batch attempted.
func (ev *Eval) EvalBatch(ctx context.Context, ds []*dataset.Dataset) ([]float64, error) {
	scores, _, err := ev.EvalBatchErrs(ctx, ds)
	return scores, err
}

// EvalBatchErrs is EvalBatch with per-slot errors: errs[i] is nil when
// scores[i] holds a real score (possibly from cache) and otherwise explains
// why the slot is NaN — ErrBudgetExhausted, the context's error, or the
// measurement failure itself. Failed and cancelled evaluations are never
// memoized and never count as interventions.
func (ev *Eval) EvalBatchErrs(ctx context.Context, ds []*dataset.Dataset) ([]float64, []error, error) {
	scores := make([]float64, len(ds))
	errs := make([]error, len(ds))
	for i := range scores {
		scores[i] = math.NaN()
	}
	if len(ds) == 0 {
		return scores, errs, nil
	}
	if err := ev.gate(ctx); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return scores, errs, err
	}

	// Fingerprints fan out over the pool, each into its own slot; the
	// serial phase after them — cache lookups, within-batch dedup, budget
	// truncation — runs in deterministic input order.
	type job struct {
		fp  uint64
		d   *dataset.Dataset
		out []int // input slots this evaluation feeds
	}
	fps := make([]uint64, len(ds))
	ParallelFor(ev.workers, len(ds), func(i int) {
		fps[i] = ds[i].Fingerprint()
	})
	var jobs []job
	seen := make(map[uint64]int)
	ev.mu.Lock()
	for i, fp := range fps {
		if s, ok := ev.cache[fp]; ok {
			scores[i] = s
			ev.stats.CacheHits++
			continue
		}
		if ev.store != nil {
			if s, ok := ev.store.Load(fp); ok {
				// Persisted by an earlier run: serve it like a cache hit —
				// no oracle call, no budget — and seed the in-memory cache.
				scores[i] = s
				ev.cache[fp] = s
				ev.stats.StoreHits++
				continue
			}
		}
		if j, ok := seen[fp]; ok {
			jobs[j].out = append(jobs[j].out, i)
			ev.stats.CacheHits++
			continue
		}
		seen[fp] = len(jobs)
		jobs = append(jobs, job{fp: fp, d: ds[i], out: []int{i}})
	}
	truncated := 0
	if ev.max > 0 {
		if remaining := ev.max - ev.stats.Interventions; len(jobs) > remaining {
			truncated = len(jobs) - remaining
			for _, j := range jobs[remaining:] {
				for _, i := range j.out {
					errs[i] = ErrBudgetExhausted
				}
			}
			jobs = jobs[:remaining]
		}
	}
	// Charge the budget up front so concurrent bookkeeping stays simple;
	// evaluations that produce no score are refunded below.
	ev.stats.Interventions += len(jobs)
	ev.stats.CacheMisses += len(jobs)
	if len(jobs) > 1 && ev.workers > 1 {
		ev.stats.Batches++
	}
	ev.mu.Unlock()

	// Parallel phase: pure scoring only. No randomness, no composition.
	// Results land in their job's slot, so the outcome is independent of
	// scheduling; a cancelled context stops further evaluations and leaves
	// their slots unevaluated.
	results := make([]pipeline.ScoreResult, len(jobs))
	evaluated := make([]bool, len(jobs))
	ParallelFor(ev.workers, len(jobs), func(j int) {
		if ctx.Err() != nil {
			return
		}
		results[j] = ev.evalOne(ctx, jobs[j].d)
		evaluated[j] = true
	})

	// Join phase: memoize successes, refund everything that produced no
	// score — failed measurements and cancel-skipped jobs alike — so the
	// intervention count matches the paper's cost model (oracle answers,
	// not oracle attempts) and no failure is ever served from the cache.
	refund := 0
	breakerRejected := 0
	var breakerErr error
	ev.mu.Lock()
	for j := range jobs {
		if !evaluated[j] {
			refund++
			// ContextFailure (not the raw cancel cause) so the per-slot
			// error always satisfies errors.Is(err, context.Canceled) even
			// under a custom context.WithCancelCause cause.
			skipErr := pipeline.ContextFailure(ctx)
			if skipErr == nil {
				skipErr = context.Canceled
			}
			skipErr = fmt.Errorf("engine: evaluation skipped: %w", skipErr)
			for _, i := range jobs[j].out {
				errs[i] = skipErr
			}
			continue
		}
		r := results[j]
		if r.Err != nil {
			refund++
			if errors.Is(r.Err, pipeline.ErrBreakerOpen) {
				breakerRejected++
				breakerErr = r.Err
			}
			for _, i := range jobs[j].out {
				errs[i] = r.Err
			}
			continue
		}
		ev.cache[jobs[j].fp] = r.Score
		if ev.store != nil {
			ev.store.Save(jobs[j].fp, r.Score, r.Deterministic)
		}
		for _, i := range jobs[j].out {
			scores[i] = r.Score
		}
	}
	ev.stats.Interventions -= refund
	ev.mu.Unlock()

	if err := pipeline.ContextFailure(ctx); err != nil {
		return scores, errs, fmt.Errorf("engine: batch interrupted: %w", err)
	}
	if truncated > 0 {
		return scores, errs, ErrBudgetExhausted
	}
	if breakerRejected == len(jobs) && len(jobs) > 0 {
		return scores, errs, breakerErr
	}
	return scores, errs, nil
}

// gate rejects work when the context is done: cancelled, or past the
// deadline that bounds the whole search. The budget itself is not checked
// here: EvalBatch charges for what it can afford and reports
// ErrBudgetExhausted only when truncating.
func (ev *Eval) gate(ctx context.Context) error {
	if err := pipeline.ContextFailure(ctx); err != nil {
		return fmt.Errorf("engine: evaluation refused: %w", err)
	}
	return nil
}

// evalOne times one error-aware oracle call, records it in the latency
// histogram, and accounts retries and failures. Budget accounting is the
// caller's business.
func (ev *Eval) evalOne(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
	//lint:ignore seededrand latency-histogram timing only; never feeds scoring or search order
	start := time.Now()
	r := ev.sys.TryMalfunctionScore(ctx, d)
	elapsed := time.Since(start)
	ev.mu.Lock()
	if r.Attempts > 0 {
		ev.stats.Latency.observe(elapsed)
	}
	if r.Attempts > 1 {
		ev.stats.Retries += r.Attempts - 1
	}
	switch {
	case r.Err != nil && errors.Is(r.Err, pipeline.ErrBreakerOpen):
		// Fail-fast rejection: no oracle call happened, nothing to classify.
	case r.Err != nil && r.Transient:
		ev.stats.TransientFailures++
	case r.Err != nil:
		ev.stats.DeterministicFailures++
	case r.Deterministic:
		ev.stats.DeterministicFailures++
	}
	ev.mu.Unlock()
	return r
}
