package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// The golden fixtures under testdata/src pair every violating idiom with
// the sanctioned rewrite, so each analyzer's positive and negative space is
// pinned: cowmutate must not flag MutableColumn-routed writes or defensive
// copies, mapdeterminism must not flag sorted-key or post-loop-sort loops,
// and so on. CI re-runs these with -run Golden -count=2 as the suite's
// self-check (a second run on a warm build cache must agree with the
// first — any divergence means nondeterministic analysis).

func TestGoldenCowMutate(t *testing.T)      { linttest.Run(t, lint.CowMutate, "cowmutate") }
func TestGoldenMapDeterminism(t *testing.T) { linttest.Run(t, lint.MapDeterminism, "mapdeterminism") }
func TestGoldenSeededRand(t *testing.T)     { linttest.Run(t, lint.SeededRand, "seededrand") }
func TestGoldenCtxFlow(t *testing.T)        { linttest.Run(t, lint.CtxFlow, "ctxflow") }
func TestGoldenFaultContract(t *testing.T)  { linttest.Run(t, lint.FaultContract, "faultcontract") }
func TestGoldenLockOrder(t *testing.T)      { linttest.Run(t, lint.LockOrder, "lockorder") }
func TestGoldenWireForm(t *testing.T)       { linttest.Run(t, lint.WireForm, "wireform") }
func TestGoldenErrWrap(t *testing.T)        { linttest.Run(t, lint.ErrWrap, "errwrap") }

// The interprocedural corpora: every finding in them crosses at least one
// in-package helper boundary, so a summary-free analyzer would miss it.
func TestGoldenCowInterproc(t *testing.T) { linttest.Run(t, lint.CowMutate, "cowinterproc") }
func TestGoldenFaultInterproc(t *testing.T) {
	linttest.Run(t, lint.FaultContract, "faultinterproc")
}

// TestGoldenIgnoreDirectives exercises the suppression lifecycle: named and
// wildcard directives silence findings (several on one line included), a
// reason-less directive is malformed, a never-matching directive is stale,
// and a typo'd analyzer name is called out.
func TestGoldenIgnoreDirectives(t *testing.T) { linttest.Run(t, lint.SeededRand, "ignores") }
