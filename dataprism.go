// Package dataprism is a from-scratch Go implementation of DataPrism
// ("DataPrism: Exposing Disconnect between Data and Systems", SIGMOD 2022;
// preprint title "DataExposer"): a framework that identifies data
// profiles — domains, outlier/missing rates, selectivities, and
// (in)dependence structure — as the causally verified root causes of a
// data-driven system's malfunction, together with the transformations that
// fix them.
//
// Given a black-box System with a malfunction score, a passing dataset, a
// failing dataset, and an acceptable threshold τ, DataPrism:
//
//  1. discovers the discriminative PVT (Profile, Violation, Transformation)
//     triplets between the two datasets,
//  2. intervenes on the failing dataset — greedily (GRD) or by
//     dependency-aware group testing (GT) — re-running the system after
//     each intervention, and
//  3. returns a minimal explanation: the PVTs whose composed
//     transformations bring the malfunction below τ.
//
// Quick start:
//
//	sys := &dataprism.ContextSystemFunc{SystemName: "my-pipeline", Score: score}
//	res, err := dataprism.Explain(ctx, sys, 0.3, passing, failing)
//	if err == nil {
//	    fmt.Println(res.ExplanationString()) // the root causes
//	}
//
// An Explainer configures the search; each search is one context-first
// method over the candidate set that Candidates discovers:
//
//	e := &dataprism.Explainer{ContextSystem: sys, Tau: 0.3, Workers: 4}
//	res, err := e.ExplainGroupTestPVTsContext(ctx, e.Candidates(passing, failing), failing)
//
// The subpackages under internal implement the substrates: the relational
// dataset, statistics, pattern learning, causal coefficients, profiles,
// transformations, graphs, ML models, synthetic pipelines, and the paper's
// case-study workloads.
package dataprism

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/transform"
)

// Core data types re-exported for downstream users.
type (
	// Dataset is the columnar relational table DataPrism profiles and
	// transforms.
	Dataset = dataset.Dataset
	// Column is a typed column of a Dataset.
	Column = dataset.Column
	// Kind identifies a column's type (Numeric, Categorical, Text).
	Kind = dataset.Kind
	// Predicate is a conjunctive selection predicate over a Dataset.
	Predicate = dataset.Predicate
	// Clause is one comparison inside a Predicate.
	Clause = dataset.Clause

	// Profile is a parameterized data property with violation semantics.
	Profile = profile.Profile
	// DiscoveryOptions configures profile discovery; the zero value is the
	// paper's configuration.
	DiscoveryOptions = profile.Options
	// SampleOptions configures sampled profile fitting with error bounds
	// (DiscoveryOptions.Sample).
	SampleOptions = profile.SampleOptions
	// ProfileBound is the error bound attached to a profile fitted on a
	// sample; retrieve it with ProfileFitBound.
	ProfileBound = profile.Bound

	// Transformation alters a dataset to satisfy a target profile.
	Transformation = transform.Transformation

	// PVT is a Profile-Violation-Transformation triplet.
	PVT = core.PVT
	// Explainer configures and runs every root-cause search: GRD, GT and
	// the decision tree, and the BugDoc, Anchor and GrpTest baselines
	// (GrpTest is GT with RandomBisection).
	Explainer = core.Explainer
	// Result is the outcome of a root-cause search.
	Result = core.Result
	// Step is one logged intervention in a Result's trace. Its PVTs are
	// indices into Result.Candidates; Result.Names renders them.
	Step = core.Step
	// BenefitMode selects the greedy candidate-scoring strategy.
	BenefitMode = core.BenefitMode

	// System is a black-box data-driven system exposing a malfunction score.
	System = pipeline.System
	// SystemFunc adapts a plain scoring function into a System.
	SystemFunc = pipeline.Func
	// ContextSystem is a black-box system whose malfunction score honors a
	// context (cancellation, deadlines, tracing values).
	ContextSystem = pipeline.ContextSystem
	// ContextSystemFunc adapts a context-aware scoring function into a
	// ContextSystem.
	ContextSystemFunc = pipeline.CtxFunc
	// ExternalSystem treats an external program (CSV on stdin, score on
	// stdout) as the black-box system; it implements FallibleSystem.
	ExternalSystem = pipeline.External
	// FallibleSystem is a black-box system exposing the error-aware scoring
	// contract: a measurement failure (timeout, fork error, cancellation) is
	// reported as an error instead of being conflated with a malfunction
	// score, so the engine never caches it and refunds its budget.
	FallibleSystem = pipeline.FallibleSystem
	// FallibleSystemFunc adapts an error-aware scoring function into a
	// FallibleSystem.
	FallibleSystemFunc = pipeline.TryFunc
	// ScoreResult is one error-aware scoring outcome.
	ScoreResult = pipeline.ScoreResult
	// Retry wraps a FallibleSystem with bounded exponential-backoff retries
	// of transient failures.
	Retry = pipeline.Retry
	// Breaker wraps a FallibleSystem with a circuit breaker that fails fast
	// after consecutive transient failures.
	Breaker = pipeline.Breaker
	// FaultInjector deterministically injects faults into a FallibleSystem —
	// the chaos-testing harness.
	FaultInjector = pipeline.FaultInjector

	// EngineStats reports the intervention engine's counters for a search:
	// interventions, memo-cache hits/misses, parallel batches, and the
	// oracle-latency histogram.
	EngineStats = engine.Stats
)

// Column kinds.
const (
	Numeric     = dataset.Numeric
	Categorical = dataset.Categorical
	Text        = dataset.Text
)

// Benefit modes (ablation knobs for the greedy search).
const (
	BenefitFull          = core.BenefitFull
	BenefitViolationOnly = core.BenefitViolationOnly
	BenefitCoverageOnly  = core.BenefitCoverageOnly
	BenefitRandom        = core.BenefitRandom
)

// ErrNoExplanation is returned when no combination of discriminative PVT
// transformations brings the malfunction score below τ.
var ErrNoExplanation = core.ErrNoExplanation

// ErrBudgetExhausted is returned (possibly wrapped) when a search stops
// because it hit its MaxInterventions budget — with the explanation found
// when the budget ran out during Make-Minimal (see Result.Explanation).
var ErrBudgetExhausted = engine.ErrBudgetExhausted

// ErrTransient marks (via errors.Is) a measurement failure that a retry may
// resolve: a timeout, a fork failure, truncated output, a cancellation.
var ErrTransient = pipeline.ErrTransient

// ErrBreakerOpen marks (via errors.Is) an evaluation rejected without
// running because the circuit breaker is open.
var ErrBreakerOpen = pipeline.ErrBreakerOpen

// AsContextSystem adapts a System into a ContextSystem that ignores the
// context while scoring.
func AsContextSystem(sys System) ContextSystem { return pipeline.AsContext(sys) }

// AsFallibleSystem adapts a ContextSystem into the error-aware contract.
// Systems that already implement FallibleSystem keep their own failure
// classification; plain systems report every returned score as a success,
// except scores computed under an already-cancelled context, which become
// transient failures.
func AsFallibleSystem(sys ContextSystem) FallibleSystem { return pipeline.AsFallible(sys) }

// NewDataset returns an empty dataset.
func NewDataset() *Dataset { return dataset.New() }

// ReadCSVFile loads a dataset from a CSV file with type inference.
func ReadCSVFile(path string, opts dataset.InferOptions) (*Dataset, error) {
	return dataset.ReadCSVFile(path, opts)
}

// CSVInferOptions configures CSV type inference.
type CSVInferOptions = dataset.InferOptions

// DiscoverProfiles learns the minimal profiles a dataset satisfies.
func DiscoverProfiles(d *Dataset, opts DiscoveryOptions) []Profile {
	return profile.Discover(d, opts)
}

// ProfileFitBound returns the sampling error bound of a profile fitted on a
// sample, or nil when the profile was fitted exactly (or its class never
// samples).
func ProfileFitBound(p Profile) *ProfileBound { return profile.FitBoundOf(p) }

// DiscriminativeProfiles returns the profiles of the passing dataset that
// the failing dataset violates (by more than 1e-9, a rounding margin) —
// the candidate root causes of Definition 10.
func DiscriminativeProfiles(pass, fail *Dataset, opts DiscoveryOptions) []Profile {
	return profile.Discriminative(pass, fail, opts, core.DiscriminativeEps)
}

// TransformationsFor builds the intervention mechanisms for a profile.
func TransformationsFor(p Profile) []Transformation { return transform.ForProfile(p) }

// PVTClass is the extension point of the PVT catalog: one named profile
// class bundling discovery (Discover) and repair (Transforms). Implement it
// on your own type and RegisterClass it — discovery, transformation
// routing, the CLI's -profiles selector, and report grouping all pick the
// class up without touching any internal package. They find the class by
// name, so every profile it discovers must return Name() from Type().
// Implementations may also provide DefaultEnabled() bool to require an
// explicit opt-in via DiscoveryOptions.Classes (absent means enabled).
type PVTClass interface {
	// Name is the registry key, e.g. "domain"; it is the selector used by
	// DiscoveryOptions.Classes and the CLI's -profiles flag.
	Name() string
	// Describe returns a one-line human-readable summary of the class.
	Describe() string
	// Discover learns the class's profiles on d. It must be deterministic
	// and safe for concurrent use.
	Discover(d *Dataset, opts DiscoveryOptions) []Profile
	// Transforms returns the candidate repairs for a profile of this class.
	Transforms(p Profile) []Transformation
}

// ProfileCodec is the optional codec half of a PVTClass: classes
// implementing it alongside PVTClass can persist their profiles into
// versioned profile artifacts (the `dataprism profile` / `diff` / `watch`
// CLI surface) and reconstruct them later. EncodeProfile receives the
// class's own profiles and must produce a canonical JSON-encodable value
// (equal profiles marshal to identical bytes); DecodeProfile must invert
// it, yielding a profile with the same Key whose SameParams holds.
type ProfileCodec interface {
	EncodeProfile(p Profile) (any, error)
	DecodeProfile(data []byte) (Profile, error)
}

// ProfileDrifter is the optional drift half of a PVTClass: a normalized
// [0,1] magnitude for how far the parameters of the "same" profile (same
// Key) moved between two artifacts. Without it, any parameter change
// reports the generic magnitude 1.
type ProfileDrifter interface {
	ProfileDrift(old, new Profile) float64
}

// EncodeProfile serializes a profile through the codec of the class its
// Type() names, returning the class name and canonical JSON bytes. It
// fails when that class is not registered or has no codec.
func EncodeProfile(p Profile) (class string, data []byte, err error) {
	return profile.EncodeProfile(p)
}

// DecodeProfile reconstructs a profile from the named class's wire form.
func DecodeProfile(class string, data []byte) (Profile, error) {
	return profile.DecodeProfile(class, data)
}

// ProfileDriftMagnitude scores the normalized [0,1] parameter drift between
// two spellings of the same profile: 0 when parameters agree, the owning
// class's drift metric when registered, 1 otherwise.
func ProfileDriftMagnitude(class string, old, new Profile) float64 {
	return profile.DriftMagnitude(class, old, new)
}

// RegisterClass adds a PVT class to the process-wide catalog under
// c.Name(): its discovery half, with the codec and drift metric when the
// class implements ProfileCodec and ProfileDrifter, and its transformation
// builder. It fails on a duplicate name, leaving the catalog unchanged.
func RegisterClass(c PVTClass) error {
	name := c.Name()
	disc := profile.Discoverer{Name: name, Describe: c.Describe(), DefaultOn: true, Discover: c.Discover}
	if t, ok := c.(interface{ DefaultEnabled() bool }); ok {
		disc.DefaultOn = t.DefaultEnabled()
	}
	if codec, ok := c.(ProfileCodec); ok {
		disc.Encode = codec.EncodeProfile
		disc.Decode = codec.DecodeProfile
	}
	if drifter, ok := c.(ProfileDrifter); ok {
		disc.Drift = drifter.ProfileDrift
	}
	if err := profile.RegisterDiscoverer(disc); err != nil {
		return fmt.Errorf("dataprism: %w", err)
	}
	if err := transform.RegisterBuilder(name, c.Transforms); err != nil {
		profile.UnregisterDiscoverer(name) // keep the two halves in step
		return fmt.Errorf("dataprism: %w", err)
	}
	return nil
}

// MustRegisterClass is RegisterClass panicking on error — for registration
// from package init.
func MustRegisterClass(c PVTClass) {
	if err := RegisterClass(c); err != nil {
		panic(err)
	}
}

// ClassNames returns the registered PVT-class names, sorted.
func ClassNames() []string {
	ds := profile.Discoverers()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// DiscoverPVTs pairs the discriminative profiles with their transformations.
func DiscoverPVTs(pass, fail *Dataset, opts DiscoveryOptions) []*PVT {
	return core.DiscoverPVTs(pass, fail, opts)
}

// Explain is the one-call entry point: it runs the greedy DataPrismGRD
// search with default options over the candidates discovered between pass
// and fail, honoring ctx, and returns the minimal explanation.
func Explain(ctx context.Context, sys ContextSystem, tau float64, pass, fail *Dataset) (*Result, error) {
	e := &Explainer{ContextSystem: sys, Tau: tau}
	return e.ExplainGreedyPVTsContext(ctx, e.Candidates(pass, fail), fail)
}

// VerifyExplanation independently re-verifies a reported explanation: the
// composed transformations must bring the failing dataset to τ or below,
// and (with checkMinimal) no proper subset may suffice.
func VerifyExplanation(ctx context.Context, sys ContextSystem, tau float64, fail *Dataset, expl []*PVT, seed int64, checkMinimal bool) (ok bool, oracleCalls int) {
	return core.VerifyExplanationContext(ctx, sys, tau, fail, expl, seed, checkMinimal)
}
