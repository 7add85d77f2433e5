package baselines

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/transform"
	"repro/internal/workload"
)

// inPlaceTransformation is the in-place fast path applyConfig checks for.
type inPlaceTransformation interface {
	ApplyInPlace(d *dataset.Dataset) error
}

// applyConfig is the composition the baselines used before they composed
// through core.ComposeAll, kept as its reference: the transformations of the
// enabled PVTs applied one after another onto a clone of fail, in place
// where possible and through the cloning Apply otherwise.
func applyConfig(fail *dataset.Dataset, pvts []*core.PVT, on []bool, rng *rand.Rand) *dataset.Dataset {
	cur := fail.Clone()
	for i, p := range pvts {
		if !on[i] {
			continue
		}
		for _, t := range p.Transforms {
			if ip, ok := t.(inPlaceTransformation); ok {
				if ip.ApplyInPlace(cur) == nil {
					break
				}
				continue
			}
			out, err := t.Apply(cur, rng)
			if err == nil {
				cur = out
				break
			}
		}
	}
	return cur
}

// caseStudy is one candidate set with the failing dataset it repairs.
type caseStudy struct {
	fail *dataset.Dataset
	pvts []*core.PVT
}

// caseStudyCandidates returns the candidate sets of the three Figure 7 case
// studies at n rows, with the default classes and with unique added, so
// Resample and Deduplicate both occur.
func caseStudyCandidates(t *testing.T, n int) map[string]caseStudy {
	t.Helper()
	income := workload.NewIncomeScenario(n, 28)
	sentiment := workload.NewSentimentScenario(n, 4)
	cardio := workload.NewCardioScenario(n, 4)
	type scenario struct {
		pass, fail *dataset.Dataset
		opts       profile.Options
	}
	out := map[string]caseStudy{}
	for name, sc := range map[string]scenario{
		"income":    {income.Pass, income.Fail, income.Options},
		"sentiment": {sentiment.Pass, sentiment.Fail, sentiment.Options},
		"cardio":    {cardio.Pass, cardio.Fail, cardio.Options},
	} {
		opts := sc.opts
		opts.Workers = 1
		out[name] = caseStudy{sc.fail, (&core.Explainer{Options: &opts}).Candidates(sc.pass, sc.fail)}
		opts.Classes = map[string]bool{"unique": true}
		for k, v := range sc.opts.Classes {
			opts.Classes[k] = v
		}
		withUnique := (&core.Explainer{Options: &opts}).Candidates(sc.pass, sc.fail)
		for _, p := range core.BuildPVTs(profile.Discover(sc.pass, opts)) {
			if _, ok := p.Profile.(*profile.Unique); ok {
				withUnique = append(withUnique, p)
			}
		}
		out[name+"+unique"] = caseStudy{sc.fail, withUnique}
	}
	return out
}

// checkConfigs composes random on/off configurations of pvts onto fail
// (plus all-on and all-off) with core.ComposeAll over the enabled PVTs and
// with the applyConfig reference, from same-seeded rngs, and fails unless
// the composed datasets are Equal both ways and fingerprint-equal and the
// two rngs make the same next draw.
func checkConfigs(t *testing.T, label string, fail *dataset.Dataset, pvts []*core.PVT, configs int, seed int64) {
	t.Helper()
	before := fail.Fingerprint()
	pick := rand.New(rand.NewSource(seed))
	rw, rg := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for c := 0; c < configs+2; c++ {
		on := make([]bool, len(pvts))
		for i := range on {
			switch c {
			case 0:
				on[i] = true
			case 1:
			default:
				on[i] = pick.Float64() < 0.5
			}
		}
		want := applyConfig(fail, pvts, on, rw)
		got := core.ComposeAll(fail, enabled(pvts, on), nil, rg)
		if !want.Equal(got) || !got.Equal(want) {
			t.Fatalf("%s/config%d: composed dataset (%d rows) differs from applyConfig's (%d rows)", label, c, got.NumRows(), want.NumRows())
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s/config%d: fingerprint %x, applyConfig %x", label, c, got.Fingerprint(), want.Fingerprint())
		}
		if a, b := rw.Int63(), rg.Int63(); a != b {
			t.Fatalf("%s/config%d: next rng draw %d, applyConfig %d", label, c, b, a)
		}
	}
	if fail.Fingerprint() != before {
		t.Fatalf("%s: composition mutated the failing dataset", label)
	}
}

// TestComposeAllMatchesApplyConfig pins the baselines' configurations,
// composed through core.ComposeAll, to the one-Apply-at-a-time composition
// they replaced, over the case studies' candidate sets at 600 rows and over
// synth instances.
func TestComposeAllMatchesApplyConfig(t *testing.T) {
	sawRows, sawDedup := false, false
	for label, c := range caseStudyCandidates(t, 600) {
		for _, p := range c.pvts {
			switch p.Transforms[0].(type) {
			case *transform.Resample:
				sawRows = true
			case *transform.Deduplicate:
				sawDedup = true
			}
		}
		checkConfigs(t, label, c.fail, c.pvts, 12, 1)
	}
	if !sawRows || !sawDedup {
		t.Fatalf("candidate sets lack a row selection: resample %v, deduplicate %v", sawRows, sawDedup)
	}
	for _, pvts := range []int{8, 20, 50} {
		for conj := 1; conj <= 3; conj++ {
			for seed := int64(0); seed < 4; seed++ {
				opts := synth.Options{NumPVTs: pvts, NumAttrs: pvts / 2, Conjunction: conj, Disjunction: int(seed % 3), Seed: seed}
				sc := synth.New(opts)
				checkConfigs(t, fmt.Sprintf("synth%+v", opts), sc.Fail, sc.PVTs, 8, seed)
			}
		}
	}
}
