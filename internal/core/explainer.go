package core

import (
	"context"
	"errors"
	"fmt"
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

// Explainer configures every root-cause search: DataPrism's own (GRD, GT
// and the decision tree) and the baselines of the paper's evaluation
// (BugDoc, Anchor, and GrpTest, which is GT with RandomBisection). The
// zero value plus a System and Tau is usable; defaults mirror the paper's
// setup.
//
// Each search is one context-first method over a candidate PVT set, which
// Candidates builds from a (pass, fail) pair:
//
//	res, err := e.ExplainGreedyPVTsContext(ctx, e.Candidates(pass, fail), fail)
//
// All searches run through one driver and evaluate through the
// intervention engine (internal/engine): an error-aware oracle with a
// bounded worker pool and a memoized score cache, under one intervention
// budget, so their intervention counts are directly comparable. Same seed
// means same explanation and same counted interventions regardless of
// Workers.
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
	// Options configures profile discovery; nil means the zero
	// profile.Options, the paper's configuration.
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
	// Explanation is the minimal PVT set (Definition 11) when Found. When
	// Make-Minimal ran out of budget before scoring every drop check, the
	// search still reports the explanation, with an error wrapping
	// engine.ErrBudgetExhausted: it brings the score to τ or below, but
	// may not be minimal.
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
	var o profile.Options
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
// on pass under Options, keeping the profiles fail violates beyond
// DiscriminativeEps. Result.Runtime of the search excludes this discovery.
func (e *Explainer) Candidates(pass, fail *dataset.Dataset) []*PVT {
	if len(e.BaselineProfiles) > 0 {
		return BuildPVTs(profile.DiscriminativeFrom(e.BaselineProfiles, fail, DiscriminativeEps))
	}
	return DiscoverPVTs(pass, fail, e.options())
}

// DiscriminativeEps is the minimum failing-side violation for a profile to
// count as discriminative, and for the decision tree to count a profile as
// violated.
const DiscriminativeEps = 1e-9

// Offsets added to Seed to seed each search's rng: DataPrism's searches
// share one stream, and each baseline keeps its own.
const (
	dataPrismStream = 0x9e3779b9
	bugDocStream    = 101
	anchorStream    = 202
)

func (e *Explainer) maxInterventions() int {
	if e.MaxInterventions == 0 {
		return 10000
	}
	return e.MaxInterventions
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

// search is the state of one search run, which the driver hands to the
// search's exploration.
type search struct {
	e    *Explainer
	ctx  context.Context
	ev   *engine.Eval
	rng  *rand.Rand
	pvts []*PVT
	fail *dataset.Dataset
	res  *Result
}

// run is the driver every search goes through. It builds the engine and
// scores the failing dataset, returns at once when that dataset already
// passes, and otherwise runs explore, the search's own exploration, with
// an rng seeded from Seed plus stream. However the search ends, the
// engine's counters and the wall-clock duration go into the Result.
func (e *Explainer) run(ctx context.Context, pvts []*PVT, fail *dataset.Dataset, stream int64, explore func(*search) error) (*Result, error) {
	//lint:ignore seededrand wall-clock stamp for Result.Runtime reporting; never feeds scoring
	start := time.Now()
	ev, err := e.newEval()
	if err != nil {
		return nil, err
	}
	res := &Result{Discriminative: len(pvts), Candidates: pvts}
	defer func() {
		res.Stats = ev.Stats()
		res.Interventions = res.Stats.Interventions
		res.Runtime = time.Since(start)
	}()
	if res.InitialScore, err = ev.Baseline(ctx, fail); err != nil {
		return res, err
	}
	res.FinalScore = res.InitialScore
	if res.InitialScore <= e.Tau {
		res.Found = true
		res.Transformed = fail.Clone()
		return res, nil
	}
	s := &search{e: e, ctx: ctx, ev: ev, rng: rand.New(rand.NewSource(e.Seed + stream)), pvts: pvts, fail: fail, res: res}
	return res, explore(s)
}

// conclude is the end GRD, GT and the decision tree share (Algorithm 1
// line 20, Algorithm 2 line 7): Make-Minimal from the explanation expl,
// given as indices into the candidates, whose composition d was verified
// at score; then Found, the explanation and the final score. chosen, which
// may be nil, pins the transformation each PVT used. When Make-Minimal
// runs out of budget, the explanation is reported with an error wrapping
// engine.ErrBudgetExhausted; any other failure reports the verified score
// and not the explanation.
func (s *search) conclude(d *dataset.Dataset, score float64, expl []int, chosen map[*PVT]transform.Transformation) error {
	s.res.FinalScore = score
	minimal, d, err := s.makeMinimal(d, expl, chosen)
	if err != nil && !errors.Is(err, engine.ErrBudgetExhausted) {
		return err
	}
	s.res.Found = true
	s.res.Explanation = minimal
	s.res.Transformed = d
	// The repaired dataset was scored (and memoized) during the search, so
	// this is a cache hit; the verified score stays if it fails.
	if fs, fsErr := s.ev.Baseline(s.ctx, d); fsErr == nil {
		s.res.FinalScore = fs
	}
	return err
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
// from an explanation X*, given as indices into the candidates, repeatedly
// try dropping one PVT; if the remaining composition still brings the
// failing dataset below τ, the PVT was unnecessary. Every check costs one
// oracle call unless memoized. chosen pins the specific transformation
// each PVT used during the search so minimality is checked against the
// same fix that was verified.
//
// The drop checks of one round are independent, so they are composed
// serially (deterministic rng order) and evaluated as one engine batch; the
// first droppable PVT in scan order is dropped and the scan restarts, which
// preserves the sequential algorithm's choice of explanation. A round is
// composed only while budget remains; memoized checks cost none, so the
// engine, not this loop, decides which checks the budget covers. When the
// budget stops it before every remaining PVT's drop check was scored, it
// returns what it has with an error wrapping engine.ErrBudgetExhausted.
func (s *search) makeMinimal(finalD *dataset.Dataset, expl []int, chosen map[*PVT]transform.Transformation) ([]*PVT, *dataset.Dataset, error) {
	current := append([]int(nil), expl...)
	best := finalD
	for len(current) > 1 {
		if s.ev.Remaining() == 0 {
			return pvtsAt(s.pvts, current), best, errMinimalityUnchecked(len(current), len(current))
		}
		cands := make([]*dataset.Dataset, len(current))
		reduced := make([]*PVT, 0, len(current)-1)
		for i := range cands {
			reduced = reduced[:0]
			for j, idx := range current {
				if j != i {
					reduced = append(reduced, s.pvts[idx])
				}
			}
			cands[i] = ComposeAll(s.fail, reduced, chosen, s.rng)
		}
		scores, err := s.ev.EvalBatch(s.ctx, cands)
		drop, scored := -1, 0
		for i, sc := range scores {
			if !math.IsNaN(sc) && sc <= s.e.Tau {
				drop = i
				break
			}
		}
		for i, sc := range scores {
			if math.IsNaN(sc) {
				continue
			}
			scored++
			s.res.Trace = append(s.res.Trace, Step{
				PVTs:      []int{current[i]},
				Transform: "make-minimal drop check",
				Score:     sc,
				Accepted:  i == drop,
			})
		}
		if err != nil && !errors.Is(err, engine.ErrBudgetExhausted) {
			return pvtsAt(s.pvts, current), best, err
		}
		if drop < 0 {
			if err != nil {
				return pvtsAt(s.pvts, current), best, errMinimalityUnchecked(len(current)-scored, len(current))
			}
			break // minimal
		}
		best = cands[drop]
		current = append(current[:drop], current[drop+1:]...)
	}
	return pvtsAt(s.pvts, current), best, nil
}

// errMinimalityUnchecked reports that Make-Minimal ran out of budget with
// unscored of an explanation's total drop checks never scored.
func errMinimalityUnchecked(unscored, total int) error {
	return fmt.Errorf("core: make-minimal ran out of budget with %d of %d drop checks unscored: %w", unscored, total, engine.ErrBudgetExhausted)
}
