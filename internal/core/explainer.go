package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/transform"
)

// BenefitMode selects how the greedy algorithm scores candidate PVTs; the
// non-default modes exist for the ablation study.
type BenefitMode int

const (
	// BenefitFull is violation × coverage (the paper's benefit score).
	BenefitFull BenefitMode = iota
	// BenefitViolationOnly scores by violation alone (ablation).
	BenefitViolationOnly
	// BenefitCoverageOnly scores by coverage alone (ablation).
	BenefitCoverageOnly
	// BenefitRandom scores uniformly at random (ablation).
	BenefitRandom
)

// Explainer configures DataPrism's root-cause search. The zero value plus a
// System and Tau is usable; defaults mirror the paper's setup.
//
// Each search is one context-first method over a candidate PVT set, which
// Candidates builds from a (pass, fail) pair:
//
//	res, err := e.ExplainGreedyPVTsContext(ctx, e.Candidates(pass, fail), fail)
//
// All searches evaluate through the intervention engine
// (internal/engine): an error-aware oracle with a bounded worker pool and
// a memoized score cache, under one intervention budget. Same seed means
// same explanation and same counted interventions regardless of Workers.
type Explainer struct {
	// System is the black box under debugging (required unless
	// ContextSystem or FallibleSystem is set).
	System pipeline.System
	// ContextSystem, when set, takes precedence over System and receives
	// the search's context on every evaluation — cancelling the context
	// can then interrupt even an in-flight external process.
	ContextSystem pipeline.ContextSystem
	// FallibleSystem, when set, takes precedence over both and exposes the
	// full error-aware contract: measurement failures (timeouts, fork
	// errors, cancellations) are distinguished from malfunction scores,
	// never cached, and refunded from the intervention budget. Wrap a
	// flaky scorer in pipeline.Retry and pipeline.Breaker and set it here.
	FallibleSystem pipeline.FallibleSystem
	// Tau is the allowable malfunction threshold (Definition 10).
	Tau float64
	// Options configures profile discovery; the zero value means
	// profile.DefaultOptions.
	Options *profile.Options
	// Seed drives the deterministic RNG behind sampling transformations and
	// bisection initialization.
	Seed int64
	// MaxInterventions caps oracle calls as a safety valve (default 10000).
	MaxInterventions int
	// Workers bounds concurrent oracle evaluations (default GOMAXPROCS;
	// 1 forces sequential evaluation). Parallelism never changes the
	// search outcome — only wall-clock time — so this replaces the old
	// SpeculativeParallel flag.
	Workers int
	// Store, when set, backs score memoization with a persistent archive
	// (internal/scorestore): scores survive the process, so a repeated or
	// killed-and-resumed search re-evaluates only what the previous run
	// never scored. Served scores consume no intervention budget and are
	// counted in Stats.StoreHits.
	Store engine.ScoreStore
	// Benefit selects the greedy scoring mode (ablation knob).
	Benefit BenefitMode
	// DisableGraphPriority skips the high-degree-attribute filter of
	// Algorithm 1 line 10 (ablation knob).
	DisableGraphPriority bool
	// RandomBisection makes the group-testing variant partition PVTs
	// uniformly at random instead of by min-bisection — this is exactly the
	// paper's GrpTest baseline.
	RandomBisection bool
	// BaselineProfiles, when non-empty, replaces profile discovery on the
	// passing dataset in Candidates: the pinned profiles — typically
	// decoded from a versioned baseline artifact (internal/artifact) — are
	// the candidate set, and discrimination is checked directly against the
	// failing dataset. The explanation then cites profiles exactly as the
	// baseline recorded them, fit bounds included, instead of a fresh
	// re-discovery that may have drifted with the passing data.
	BaselineProfiles []profile.Profile

	// eval, when set, is a pre-built evaluation substrate shared across
	// searches (EnumerateExplanationsPVTsContext uses this so repeated
	// greedy runs share one memo cache and one budget).
	eval *engine.Eval
}

// Step records one intervention for the Result trace.
type Step struct {
	// PVTs lists the profiles intervened on (one for greedy, a group for
	// GT) as indices into Result.Candidates; Result.Names renders them.
	PVTs []int
	// Transform names the applied transformation ("" for group steps).
	Transform string
	// Score is the malfunction score observed after the intervention.
	Score float64
	// Accepted reports whether the intervention was kept.
	Accepted bool
}

// Result is the outcome of a root-cause search.
type Result struct {
	// Found reports whether an explanation bringing the score below Tau
	// was identified.
	Found bool
	// Explanation is the minimal PVT set (Definition 11) when Found.
	Explanation []*PVT
	// Transformed is the repaired dataset when Found.
	Transformed *dataset.Dataset
	// Interventions is the number of oracle calls on transformed datasets.
	// Memoized re-evaluations are free (see Stats.CacheHits).
	Interventions int
	// Discriminative is the number of discriminative PVT candidates.
	Discriminative int
	// Candidates is the PVT set the search ran on — the caller's slice,
	// not a copy. Trace steps name PVTs by their index into it.
	Candidates []*PVT
	// InitialScore and FinalScore bracket the search.
	InitialScore, FinalScore float64
	// Trace logs each intervention in order.
	Trace []Step
	// Runtime is the wall-clock duration of the search.
	Runtime time.Duration
	// Stats is the engine's full counter snapshot: interventions, cache
	// hits/misses, parallel batches, and the oracle latency histogram.
	Stats engine.Stats
}

// ExplanationString renders the explanation in the paper's set notation.
func (r *Result) ExplanationString() string { return pvtSetString(r.Explanation) }

// Names renders candidate indices, such as a trace step's PVTs, as the
// candidates' names.
func (r *Result) Names(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = r.Candidates[id].String()
	}
	return out
}

// ErrNoExplanation is returned when no combination of discriminative PVT
// transformations brings the malfunction score below τ — e.g. when
// assumption A1 (the ground truth is captured by some discriminative PVT)
// or A3 (for group testing) does not hold.
var ErrNoExplanation = errors.New("core: no explanation found among discriminative PVTs")

// options returns the discovery options with defaults applied; the
// explainer's worker budget carries over to parallel profile discovery
// unless the options pin their own.
func (e *Explainer) options() profile.Options {
	o := profile.DefaultOptions()
	if e.Options != nil {
		o = *e.Options
	}
	if o.Workers == 0 {
		o.Workers = e.Workers
	}
	return o
}

// Candidates resolves the discriminative PVT set a search runs on — lines
// 1–4 of Algorithms 1 and 2: the pinned BaselineProfiles when configured
// (filtered down to what fail violates), otherwise fresh profile discovery
// on pass under Options, keeping the profiles fail violates beyond eps.
// Result.Runtime of the search excludes this discovery.
func (e *Explainer) Candidates(pass, fail *dataset.Dataset) []*PVT {
	if len(e.BaselineProfiles) > 0 {
		return BuildPVTs(profile.DiscriminativeFrom(e.BaselineProfiles, fail, eps))
	}
	return DiscoverPVTs(pass, fail, e.options(), eps)
}

// eps is the minimum failing-side violation for a profile to count as
// discriminative, and for the decision tree to count a profile as violated.
const eps = 1e-9

func (e *Explainer) maxInterventions() int {
	if e.MaxInterventions == 0 {
		return 10000
	}
	return e.MaxInterventions
}

func (e *Explainer) rng() *rand.Rand {
	return rand.New(rand.NewSource(e.Seed + 0x9e3779b9))
}

// newEval builds (or reuses) the evaluation substrate for one search over
// the configured system, resolved to the error-aware contract:
// FallibleSystem takes precedence over ContextSystem, which takes
// precedence over System.
func (e *Explainer) newEval() (*engine.Eval, error) {
	if e.eval != nil {
		return e.eval, nil
	}
	var sys pipeline.FallibleSystem
	switch {
	case e.FallibleSystem != nil:
		sys = e.FallibleSystem
	case e.ContextSystem != nil:
		sys = pipeline.AsFallible(e.ContextSystem)
	case e.System != nil:
		sys = pipeline.AsFallible(pipeline.AsContext(e.System))
	default:
		return nil, errors.New("core: Explainer requires a System, ContextSystem, or FallibleSystem")
	}
	return engine.New(sys, engine.Config{
		Workers:          e.Workers,
		MaxInterventions: e.maxInterventions(),
		Store:            e.Store,
	}), nil
}

// finish stamps the engine's counters and the wall clock onto the result.
func finish(res *Result, ev *engine.Eval, start time.Time) {
	res.Stats = ev.Stats()
	res.Interventions = res.Stats.Interventions
	res.Runtime = time.Since(start)
}

// benefit scores PVT i, p, according to the configured mode. cov, when
// non-nil, memoizes the coverage term for the duration of one search.
func (e *Explainer) benefit(i int, p *PVT, d *dataset.Dataset, rng *rand.Rand, cov *coverageCache) float64 {
	switch e.Benefit {
	case BenefitViolationOnly:
		return p.Profile.Violation(d)
	case BenefitCoverageOnly:
		if cov != nil {
			return cov.maxCoverage(i, p, d)
		}
		return maxCoverage(p.Transforms, d)
	case BenefitRandom:
		return rng.Float64()
	default:
		return benefitCached(i, p, d, cov)
	}
}

// makeMinimal implements Algorithm 1 line 20 / Algorithm 2 line 7: starting
// from an explanation X*, given as indices into pvts, repeatedly try
// dropping one PVT; if the remaining composition still brings the failing
// dataset below τ, the PVT was unnecessary. Every check costs one oracle
// call unless memoized. chosen pins the specific transformation each PVT
// used during the search so minimality is checked against the same fix
// that was verified.
//
// The drop checks of one round are independent, so they are composed
// serially (deterministic rng order) and evaluated as one engine batch; the
// first droppable PVT in scan order is dropped and the scan restarts, which
// preserves the sequential algorithm's choice of explanation. The budget is
// checked before any composition work, so an exhausted budget wastes no
// dataset clones.
func (e *Explainer) makeMinimal(ctx context.Context, ev *engine.Eval, fail, finalD *dataset.Dataset, pvts []*PVT, expl []int,
	chosen map[*PVT]transform.Transformation, rng *rand.Rand, trace *[]Step) ([]*PVT, *dataset.Dataset, error) {

	current := append([]int(nil), expl...)
	best := finalD
	for len(current) > 1 {
		n := len(current)
		if r := ev.Remaining(); n > r {
			n = r
		}
		if n == 0 {
			break
		}
		cands := make([]*dataset.Dataset, n)
		reduced := make([]*PVT, 0, len(current)-1)
		for i := 0; i < n; i++ {
			reduced = reduced[:0]
			for j, idx := range current {
				if j != i {
					reduced = append(reduced, pvts[idx])
				}
			}
			cands[i] = ComposeAll(fail, reduced, chosen, rng)
		}
		scores, err := ev.EvalBatch(ctx, cands)
		drop := -1
		for i, s := range scores {
			if !math.IsNaN(s) && s <= e.Tau {
				drop = i
				break
			}
		}
		for i, s := range scores {
			if math.IsNaN(s) {
				continue
			}
			*trace = append(*trace, Step{
				PVTs:      []int{current[i]},
				Transform: "make-minimal drop check",
				Score:     s,
				Accepted:  i == drop,
			})
		}
		if err != nil && !errors.Is(err, engine.ErrBudgetExhausted) {
			return pvtsAt(pvts, current), best, err
		}
		if drop < 0 {
			break // minimal (or budget ran dry mid-round with no drop found)
		}
		best = cands[drop]
		current = append(current[:drop], current[drop+1:]...)
		if err != nil {
			break // the drop was applied, but no budget remains for another round
		}
	}
	return pvtsAt(pvts, current), best, nil
}
