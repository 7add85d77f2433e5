package profile

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// equivDataset builds a deterministic mixed-kind dataset with csize-row
// chunks: two small-domain categorical columns (correlated, so FDs and
// selectivity profiles are discovered), two numeric columns (correlated, so
// Pearson profiles are non-trivial), and NULLs sprinkled in.
func equivDataset(rows, csize int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(99))
	regions := []string{"north", "south", "east", "west"}
	tiers := []string{"gold", "silver", "bronze"}
	reg := make([]string, rows)
	tier := make([]string, rows)
	x := make([]float64, rows)
	y := make([]float64, rows)
	null := make([]bool, rows)
	for i := 0; i < rows; i++ {
		r := rng.Intn(len(regions))
		reg[i] = regions[r]
		// tier is mostly determined by region — an approximate FD.
		if rng.Float64() < 0.9 {
			tier[i] = tiers[r%len(tiers)]
		} else {
			tier[i] = tiers[rng.Intn(len(tiers))]
		}
		x[i] = rng.NormFloat64()
		y[i] = 0.6*x[i] + 0.8*rng.NormFloat64()
		null[i] = i%101 == 0
	}
	d := dataset.NewChunked(csize)
	if err := d.AddCategoricalColumn("region", reg, null); err != nil {
		panic(err)
	}
	if err := d.AddCategoricalColumn("tier", tier, nil); err != nil {
		panic(err)
	}
	if err := d.AddNumericColumn("x", x, nil); err != nil {
		panic(err)
	}
	if err := d.AddNumericColumn("y", y, null); err != nil {
		panic(err)
	}
	return d
}

// allClassOpts enables every registered profile class.
func allClassOpts() Options {
	opts := Options{}
	opts.Classes = make(map[string]bool)
	for _, c := range Discoverers() {
		opts.Classes[c.Name] = true
	}
	return opts
}

// TestSampledDiscoveryIdenticalBelowThreshold: with the dataset below the
// sample cap, sampled discovery must be byte-identical to exact discovery —
// same profiles, same order, same rendered parameters, no bounds attached,
// and identical violation scores on a perturbed dataset.
func TestSampledDiscoveryIdenticalBelowThreshold(t *testing.T) {
	d := equivDataset(900, 128)
	exact := allClassOpts()
	sampled := allClassOpts()
	sampled.Sample = SampleOptions{Cap: 10_000, Seed: 7}

	pe := Discover(d, exact)
	ps := Discover(d, sampled)
	if len(pe) == 0 || len(pe) != len(ps) {
		t.Fatalf("profile counts differ: exact %d, sampled %d", len(pe), len(ps))
	}

	// A perturbed dataset to compare violation scores on.
	bad := d.Clone()
	for i := 0; i < 50; i++ {
		bad.SetNum("x", i*7, 1e3+float64(i))
		bad.SetStr("region", i*11, "atlantis")
	}

	for i := range pe {
		if pe[i].Key() != ps[i].Key() {
			t.Fatalf("profile %d: key %q vs %q — order or set differs", i, pe[i].Key(), ps[i].Key())
		}
		if pe[i].String() != ps[i].String() {
			t.Fatalf("profile %d: params differ: %s vs %s", i, pe[i], ps[i])
		}
		if !pe[i].SameParams(ps[i]) || !ps[i].SameParams(pe[i]) {
			t.Fatalf("profile %d: SameParams false below sampling threshold: %s", i, pe[i])
		}
		if b := FitBoundOf(ps[i]); b != nil {
			t.Fatalf("profile %s carries bound %v below sampling threshold", ps[i].Key(), b)
		}
		ve, vs := pe[i].Violation(bad), ps[i].Violation(bad)
		if ve != vs {
			t.Fatalf("profile %s: violation %v (exact) vs %v (sampled)", pe[i].Key(), ve, vs)
		}
	}
}

// TestSampledDiscoveryBoundsAttached: above the threshold, every profile of
// a sampled class carries a bound describing the draw, the cheap classes
// stay exact, and discovery is deterministic in the seed.
func TestSampledDiscoveryBoundsAttached(t *testing.T) {
	d := equivDataset(30_000, 4096)
	opts := allClassOpts()
	opts.Sample = SampleOptions{Cap: 2000, Seed: 3}

	ps := Discover(d, opts)
	if len(ps) == 0 {
		t.Fatal("no profiles discovered")
	}
	sampledClasses := map[string]bool{
		"selectivity": true, "indep": true, "indep-causal": true, "fd": true, "unique": true, "inclusion": true,
	}
	for _, p := range ps {
		b := FitBoundOf(p)
		switch {
		case p.Type() == "distribution":
			if b == nil || b.Method != "sketch" || b.Epsilon <= 0 || b.Confidence != 1 {
				t.Fatalf("distribution profile %s: want deterministic sketch bound, got %+v", p.Key(), b)
			}
		case sampledClasses[p.Type()]:
			if b == nil {
				t.Fatalf("profile %s of sampled class has no bound", p.Key())
			}
			if b.SampleRows != 2000 || b.TotalRows != 30_000 || b.Seed != 3 {
				t.Fatalf("profile %s: bound draw %+v, want m=2000 of 30000 seed 3", p.Key(), b)
			}
			if b.Epsilon <= 0 || b.Epsilon >= 1 || b.Confidence != 0.95 {
				t.Fatalf("profile %s: degenerate bound %+v", p.Key(), b)
			}
		default:
			if b != nil {
				t.Fatalf("exact-class profile %s carries bound %+v", p.Key(), b)
			}
		}
	}

	// Same seed, same profiles — including the fitted parameters.
	again := Discover(d, opts)
	if len(again) != len(ps) {
		t.Fatalf("re-discovery count %d != %d", len(again), len(ps))
	}
	for i := range ps {
		if ps[i].Key() != again[i].Key() || ps[i].String() != again[i].String() {
			t.Fatalf("profile %d not deterministic: %s vs %s", i, ps[i], again[i])
		}
	}
}

// TestSampledEpsilonDerivesCap: Sample.Epsilon alone sizes the draw via the
// Hoeffding sample-size formula.
func TestSampledEpsilonDerivesCap(t *testing.T) {
	opts := Options{}
	opts.Sample = SampleOptions{Epsilon: 0.05}
	cap := opts.sampleCap()
	// m = ln(2/0.05)/(2·0.05²) = ln(40)/0.005 ≈ 738.
	if cap < 700 || cap > 800 {
		t.Fatalf("derived cap = %d, want ≈738", cap)
	}
	d := equivDataset(20_000, 4096)
	opts.Classes = map[string]bool{
		"domain": false, "missing": false, "outlier": false, "indep": false,
		"selectivity": true,
	}
	for _, p := range Discover(d, opts) {
		b := FitBoundOf(p)
		if b == nil || b.SampleRows != cap {
			t.Fatalf("profile %s: bound %+v, want m=%d", p.Key(), b, cap)
		}
		if b.Epsilon > 0.0501 {
			t.Fatalf("profile %s: epsilon %v exceeds requested 0.05", p.Key(), b.Epsilon)
		}
	}
}

// TestSampleBoundsHold is the coverage property test: across many seeds, the
// sampled parameter of each Hoeffding-bounded profile must land within
// Epsilon of its exact full-dataset value in at least 95% of trials, and the
// distribution sketch deviation must respect its deterministic rank bound in
// every trial.
func TestSampleBoundsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("property test with repeated discoveries")
	}
	const (
		rows  = 40_000
		csize = 4096
		cap   = 2000
		seeds = 40
	)
	d := equivDataset(rows, csize)
	opts := Options{}
	opts.Classes = map[string]bool{
		"domain": false, "missing": false, "outlier": false, "indep": false,
		"selectivity": true, "fd": true,
	}

	hits, trials := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		opts.Sample = SampleOptions{Cap: cap, Seed: seed}
		for _, p := range Discover(d, opts) {
			b := FitBoundOf(p)
			if b == nil {
				t.Fatalf("profile %s has no bound at %d rows", p.Key(), rows)
			}
			var sampledParam, exactParam float64
			switch sp := p.(type) {
			case *Selectivity:
				sampledParam = sp.Theta
				exactParam = sp.Pred.Selectivity(d)
			case *FuncDep:
				sampledParam = sp.Epsilon
				exactParam = (&FuncDep{Det: sp.Det, Dep: sp.Dep}).G3(d)
			default:
				t.Fatalf("unexpected profile class %T", p)
			}
			trials++
			if math.Abs(sampledParam-exactParam) <= b.Epsilon {
				hits++
			}
		}
	}
	if trials < seeds { // at least one bounded profile per seed
		t.Fatalf("only %d trials ran", trials)
	}
	if frac := float64(hits) / float64(trials); frac < 0.95 {
		t.Fatalf("bounds held in %.1f%% of %d trials, want ≥95%%", 100*frac, trials)
	}

	// Distribution: the sketch-fitted deciles deviate from the exact deciles
	// by at most the rank error times the local quantile spacing — checked
	// via the profile's own Deviation against an exactly fitted reference.
	sketch := DiscoverDistributionSketch(d, "x")
	exactD := DiscoverDistribution(d, "x")
	if sketch == nil || exactD == nil {
		t.Fatal("distribution discovery failed")
	}
	span := exactD.Quantiles[len(exactD.Quantiles)-1] - exactD.Quantiles[0]
	for i := range exactD.Quantiles {
		if diff := math.Abs(sketch.Quantiles[i] - exactD.Quantiles[i]); diff > 0.05*span {
			t.Fatalf("decile %d: sketch %v vs exact %v (span %v)", i, sketch.Quantiles[i], exactD.Quantiles[i], span)
		}
	}
}

// TestDiscriminativeSampled: the end-to-end Discriminative flow works with
// sampling on — a large passing dataset, a perturbed failing dataset, and a
// selectivity shift big enough to clear the sampling noise must surface as a
// discriminative profile.
func TestDiscriminativeSampled(t *testing.T) {
	pass := equivDataset(25_000, 4096)
	fail := pass.Clone()
	// Shift a third of the region column to a single value: the "north"
	// selectivity roughly doubles — far outside the ≈0.03 Hoeffding noise.
	for i := 0; i < fail.NumRows(); i += 3 {
		fail.SetStr("region", i, "north")
	}
	opts := Options{}
	opts.Sample = SampleOptions{Cap: 2000, Seed: 11}
	out := Discriminative(pass, fail, opts, 0.1)
	found := false
	for _, p := range out {
		if p.Type() == "selectivity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no discriminative selectivity profile found among %d profiles", len(out))
	}
}
