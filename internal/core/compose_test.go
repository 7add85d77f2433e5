package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/transform"
	"repro/internal/workload"
)

// applyPVTOwnedRef is the sequential composition step that the row-list
// composition replaced, kept as its reference: in-place-capable
// transformations mutate the owned dataset, and every other one, row
// selections included, goes through its cloning Apply.
func applyPVTOwnedRef(owned *dataset.Dataset, ts []transform.Transformation, rng *rand.Rand) (*dataset.Dataset, error) {
	var firstErr error
	for _, t := range ts {
		if ip, ok := t.(inPlaceTransformation); ok {
			if err := ip.ApplyInPlace(owned); err == nil {
				return owned, nil
			} else if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out, err := t.Apply(owned, rng)
		if err == nil {
			return out, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return owned, fmt.Errorf("core: no applicable transformation: %w", firstErr)
}

// composeSequential is ComposeAll over applyPVTOwnedRef: one dataset per
// applied transformation.
func composeSequential(d *dataset.Dataset, pvts []*PVT, chosen map[*PVT]transform.Transformation, rng *rand.Rand) *dataset.Dataset {
	cur := d.Clone()
	for _, p := range pvts {
		ts := p.Transforms
		if chosen != nil {
			if t, ok := chosen[p]; ok && t != nil {
				ts = []transform.Transformation{t}
			}
		}
		if next, err := applyPVTOwnedRef(cur, ts, rng); err == nil {
			cur = next
		}
	}
	return cur
}

// applyGroupSequential is gtGroupState.applyGroup over applyPVTOwnedRef.
func applyGroupSequential(d *dataset.Dataset, pvts []*PVT, g *graph.PVTAttr, x []int, rng *rand.Rand) *dataset.Dataset {
	cur := d.Clone()
	for _, i := range x {
		if next, err := applyPVTOwnedRef(cur, orderTransforms(pvts[i], g), rng); err == nil {
			cur = next
		}
	}
	return cur
}

// sameComposition fails unless two composed datasets are Equal both ways
// and fingerprint-equal, and the two rngs that composed them make the same
// next draw.
func sameComposition(t testing.TB, label string, want, got *dataset.Dataset, rw, rg *rand.Rand) {
	t.Helper()
	if !want.Equal(got) || !got.Equal(want) {
		t.Fatalf("%s: composed dataset (%d rows) differs from the sequential one (%d rows)", label, got.NumRows(), want.NumRows())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %x, sequential %x", label, got.Fingerprint(), want.Fingerprint())
	}
	if a, b := rw.Int63(), rg.Int63(); a != b {
		t.Fatalf("%s: next rng draw %d, sequential %d", label, b, a)
	}
}

// checkComposition composes pvts onto d with ComposeAll (with and without a
// chosen transformation per PVT) and with applyGroup, each against its
// sequential reference from a same-seeded rng, and checks d is unchanged.
func checkComposition(t testing.TB, label string, d *dataset.Dataset, pvts []*PVT, seed int64) {
	t.Helper()
	before := d.Fingerprint()
	rw, rg := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	sameComposition(t, label+"/all", composeSequential(d, pvts, nil, rw), ComposeAll(d, pvts, nil, rg), rw, rg)

	chosen := make(map[*PVT]transform.Transformation)
	for i, p := range pvts {
		chosen[p] = p.Transforms[i%len(p.Transforms)]
	}
	sameComposition(t, label+"/chosen", composeSequential(d, pvts, chosen, rw), ComposeAll(d, pvts, chosen, rg), rw, rg)

	g := buildGraph(pvts)
	x := rand.New(rand.NewSource(seed)).Perm(len(pvts))
	st := &gtGroupState{search: &search{pvts: pvts, rng: rg}, g: g}
	sameComposition(t, label+"/group", applyGroupSequential(d, pvts, g, x, rw), st.applyGroup(d, x), rw, rg)
	if d.Fingerprint() != before {
		t.Fatalf("%s: composition mutated its input", label)
	}
}

// selectivityPVT is a PVT whose only transformation is a Resample to θ.
func selectivityPVT(pred dataset.Predicate, theta float64) *PVT {
	p := &profile.Selectivity{Pred: pred, Theta: theta}
	return &PVT{Profile: p, Transforms: []transform.Transformation{&transform.Resample{Profile: p}}}
}

// scenarioCandidates returns the candidate sets a search would run on for
// the three Figure 7 case studies at n rows, with the default classes and
// with unique added. Unique profiles of the passing dataset join the
// +unique sets even where the failing dataset does not violate them, so
// deduplication meets the rows over-sampling duplicated.
func scenarioCandidates(t testing.TB, n int) map[string]struct {
	fail *dataset.Dataset
	pvts []*PVT
} {
	type scenario struct {
		pass, fail *dataset.Dataset
		opts       profile.Options
	}
	income := workload.NewIncomeScenario(n, 28)
	sentiment := workload.NewSentimentScenario(n, 4)
	cardio := workload.NewCardioScenario(n, 4)
	scenarios := map[string]scenario{
		"income":    {income.Pass, income.Fail, income.Options},
		"sentiment": {sentiment.Pass, sentiment.Fail, sentiment.Options},
		"cardio":    {cardio.Pass, cardio.Fail, cardio.Options},
	}
	out := make(map[string]struct {
		fail *dataset.Dataset
		pvts []*PVT
	})
	for name, sc := range scenarios {
		for _, unique := range []bool{false, true} {
			opts := sc.opts
			opts.Workers = 1
			label := name
			if unique {
				classes := map[string]bool{"unique": true}
				for k, v := range sc.opts.Classes {
					classes[k] = v
				}
				opts.Classes = classes
				label += "+unique"
			}
			pvts := (&Explainer{Options: &opts}).Candidates(sc.pass, sc.fail)
			if unique {
				for _, p := range BuildPVTs(profile.Discover(sc.pass, opts)) {
					if _, ok := p.Profile.(*profile.Unique); ok {
						pvts = append(pvts, p)
					}
				}
			}
			if len(pvts) == 0 {
				t.Fatalf("%s: no candidates", label)
			}
			out[label] = struct {
				fail *dataset.Dataset
				pvts []*PVT
			}{sc.fail, pvts}
		}
	}
	return out
}

// TestCompositionMatchesSequential pins the row-list composition to the
// sequential one it replaced: the same dataset, fingerprint and rng state
// for the case studies' candidate sets, in random subsets and orders, at
// several chunk sizes, and for hand-built Selectivity repairs at the edges
// of Resample (θ = 0, θ = 1, θ at the current share, under- and
// over-sampling, and a Resample that errors and falls through).
func TestCompositionMatchesSequential(t *testing.T) {
	cands := scenarioCandidates(t, 600)
	sawRows, sawDedup := false, false
	for label, c := range cands {
		for _, p := range c.pvts {
			switch p.Transforms[0].(type) {
			case *transform.Resample:
				sawRows = true
			case *transform.Deduplicate:
				sawDedup = true
			}
		}
		for _, csize := range []int{1, 7, 64 << 10} {
			fail := c.fail.Rechunk(csize)
			rng := rand.New(rand.NewSource(int64(csize)))
			subsets := 6
			if csize == 1 {
				subsets = 2
			}
			checkComposition(t, fmt.Sprintf("%s/chunk%d/in-order", label, csize), fail, c.pvts, 1)
			for s := 0; s < subsets; s++ {
				perm := rng.Perm(len(c.pvts))
				sub := pvtsAt(c.pvts, perm[:1+rng.Intn(len(perm))])
				checkComposition(t, fmt.Sprintf("%s/chunk%d/subset%d", label, csize, s), fail, sub, int64(s))
			}
		}
	}
	if !sawRows || !sawDedup {
		t.Fatalf("candidate sets lack a row selection: resample %v, deduplicate %v", sawRows, sawDedup)
	}

	// Hand-built Selectivity repairs on Income's failing dataset.
	income := workload.NewIncomeScenario(600, 28)
	female := dataset.And(dataset.EqStr("sex", "Female"))
	share := female.Selectivity(income.Fail)
	nobody := dataset.And(dataset.EqStr("sex", "Nobody"))
	fallThrough := &PVT{
		Profile: &profile.Selectivity{Pred: nobody, Theta: 0.5},
		Transforms: []transform.Transformation{
			&transform.Resample{Profile: &profile.Selectivity{Pred: nobody, Theta: 0.5}},
			&transform.Deduplicate{Profile: &profile.Unique{Attr: "age"}},
		},
	}
	hand := []*PVT{
		selectivityPVT(female, share/2), // under-sample
		selectivityPVT(female, share),   // at the current share: the input unchanged
		selectivityPVT(female, (1+share)/2),
		selectivityPVT(dataset.And(dataset.EqStr("sex", "Female"), dataset.EqStr("target", "low")), 0.8),
		fallThrough,
		selectivityPVT(nobody, 1), // errors: no matching row
		selectivityPVT(female, 0),
		selectivityPVT(female, 0.3), // errors once θ = 0 removed every match
		selectivityPVT(dataset.And(dataset.EqStr("sex", "Male")), 1),
		{Profile: &profile.Unique{Attr: "edu"}, Transforms: []transform.Transformation{&transform.Deduplicate{Profile: &profile.Unique{Attr: "edu"}}}},
	}
	incomeCands := cands["income+unique"].pvts
	for _, csize := range []int{1, 7, 64 << 10} {
		fail := income.Fail.Rechunk(csize)
		checkComposition(t, fmt.Sprintf("hand/chunk%d", csize), fail, hand, 3)
		rng := rand.New(rand.NewSource(int64(csize)))
		for s := 0; s < 8; s++ {
			mixed := append(append([]*PVT(nil), hand...), pvtsAt(incomeCands, rng.Perm(len(incomeCands))[:8])...)
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			checkComposition(t, fmt.Sprintf("hand/chunk%d/mixed%d", csize, s), fail, mixed, int64(s))
		}
	}
}

// TestConfigsMatchSequential pins the baselines' on/off configurations,
// composed through ComposeAll over the enabled PVTs, to the sequential
// composition: all on, all off and random configurations, in candidate
// order, over the case studies' candidate sets at 600 rows and over
// generated instances with in-place transformations.
func TestConfigsMatchSequential(t *testing.T) {
	check := func(label string, fail *dataset.Dataset, pvts []*PVT, configs int, seed int64) {
		t.Helper()
		before := fail.Fingerprint()
		pick := rand.New(rand.NewSource(seed))
		rw, rg := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for c := 0; c < configs+2; c++ {
			on := make([]bool, len(pvts))
			for i := range on {
				on[i] = c == 0 || (c > 1 && pick.Float64() < 0.5)
			}
			sub := pvtsAt(pvts, onIDs(on))
			sameComposition(t, fmt.Sprintf("%s/config%d", label, c), composeSequential(fail, sub, nil, rw), ComposeAll(fail, sub, nil, rg), rw, rg)
		}
		if fail.Fingerprint() != before {
			t.Fatalf("%s: composition mutated the failing dataset", label)
		}
	}
	for label, c := range scenarioCandidates(t, 600) {
		check(label, c.fail, c.pvts, 12, 1)
	}
	for seed := int64(0); seed < 8; seed++ {
		plan := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(plan)
		d, pvts := fuzzComposition(seed, 40, 7, plan)
		check(fmt.Sprintf("generated%d", seed), d, pvts, 8, seed)
	}
}

// inPlaceScale multiplies a numeric column by a factor, in place when the
// composition owns the dataset: the in-place path between row selections.
type inPlaceScale struct {
	attr   string
	factor float64
}

func (t *inPlaceScale) Name() string       { return "scale" }
func (t *inPlaceScale) Modifies() []string { return []string{t.attr} }
func (t *inPlaceScale) Coverage(*dataset.Dataset) float64 {
	return 1
}

func (t *inPlaceScale) Apply(d *dataset.Dataset, _ *rand.Rand) (*dataset.Dataset, error) {
	out := d.Clone()
	return out, t.ApplyInPlace(out)
}

func (t *inPlaceScale) ApplyInPlace(d *dataset.Dataset) error {
	if d.NumRows() == 0 {
		return fmt.Errorf("scale: no rows")
	}
	for r := 0; r < d.NumRows(); r++ {
		if !d.IsNull(t.attr, r) {
			d.SetNum(t.attr, r, d.Num(t.attr, r)*t.factor)
		}
	}
	return nil
}

// fuzzComposition builds a small dataset and a PVT list from fuzz input:
// Resamples over one- and two-clause predicates at θ from 0 to 1,
// deduplications of numeric (NaNs of two payloads, ±0) and categorical
// keys, a categorical domain repair, a shuffle that draws rng, an in-place
// transformation, and a Resample that falls through to a deduplication.
func fuzzComposition(seed int64, rows, csize int, plan []byte) (*dataset.Dataset, []*PVT) {
	rng := rand.New(rand.NewSource(seed))
	g := make([]string, rows)
	k := make([]string, rows)
	v := make([]float64, rows)
	gNull := make([]bool, rows)
	vNull := make([]bool, rows)
	for i := range g {
		g[i] = string(rune('a' + rng.Intn(3)))
		k[i] = string(rune('x' + rng.Intn(2)))
		switch rng.Intn(9) {
		case 0:
			v[i] = math.NaN()
		case 8:
			v[i] = math.Float64frombits(0xfff8000000000000) // a NaN with another payload
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = float64(rng.Intn(rows/2 + 1))
		}
		gNull[i] = rng.Intn(10) == 0
		vNull[i] = rng.Intn(10) == 0
	}
	d := dataset.NewChunked(csize)
	if err := d.AddCategoricalColumn("g", g, gNull); err != nil {
		panic(err)
	}
	if err := d.AddNumericColumn("v", v, vNull); err != nil {
		panic(err)
	}
	d.MustAddCategorical("k", k)

	// Over-sampling to θ multiplies the rows by up to 1/(1−θ), so a plan
	// gets at most maxResizes Resamples with 0 < θ < 1; later ones drop
	// their matches (θ = 0). That bounds a composition at 4⁴ times the rows.
	const maxResizes = 4
	thetas := []float64{0, 1, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.6}
	resizes := 0
	var pvts []*PVT
	for _, b := range plan {
		val := string(rune('a' + int(b>>3)%3))
		theta := thetas[int(b>>5)%len(thetas)]
		if op := b % 8; (op <= 2 || op == 7) && theta > 0 && theta < 1 {
			if resizes++; resizes > maxResizes {
				theta = 0
			}
		}
		switch b % 8 {
		case 0, 1:
			pvts = append(pvts, selectivityPVT(dataset.And(dataset.EqStr("g", val)), theta))
		case 2:
			pvts = append(pvts, selectivityPVT(dataset.And(dataset.EqStr("g", val), dataset.EqStr("k", "x")), theta))
		case 3:
			attr := "v"
			if b&16 != 0 {
				attr = "g"
			}
			u := &profile.Unique{Attr: attr}
			pvts = append(pvts, &PVT{Profile: u, Transforms: []transform.Transformation{&transform.Deduplicate{Profile: u}}})
		case 4:
			dom := &profile.DomainCategorical{Attr: "g", Values: map[string]bool{val: true}}
			pvts = append(pvts, &PVT{Profile: dom, Transforms: []transform.Transformation{&transform.MapToDomain{Profile: dom}}})
		case 5:
			ind := &profile.IndepChi{AttrA: "g", AttrB: "k"}
			pvts = append(pvts, &PVT{Profile: ind, Transforms: []transform.Transformation{&transform.ShuffleBreak{Prof: ind, Attr: "k"}}})
		case 6:
			s := &inPlaceScale{attr: "v", factor: 2}
			pvts = append(pvts, &PVT{Profile: &profile.Missing{Attr: s.attr}, Transforms: []transform.Transformation{s}})
		case 7:
			sel := &profile.Selectivity{Pred: dataset.And(dataset.EqStr("g", val)), Theta: theta}
			u := &profile.Unique{Attr: "g"}
			pvts = append(pvts, &PVT{Profile: sel, Transforms: []transform.Transformation{
				&transform.Resample{Profile: sel},
				&transform.Deduplicate{Profile: u},
			}})
		}
	}
	return d, pvts
}

// FuzzComposeMatchesSequential checks the row-list composition against the
// sequential reference on generated datasets and PVT lists.
func FuzzComposeMatchesSequential(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(7), []byte{0, 3, 8, 2, 6, 1, 5})
	f.Add(int64(2), uint16(0), uint8(1), []byte{0, 1, 2, 3})
	f.Add(int64(3), uint16(200), uint8(64), []byte{32, 64, 96, 128, 160, 3, 19, 7, 39, 4, 6})
	f.Add(int64(4), uint16(9), uint8(2), []byte{7, 15, 23, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, csize uint8, plan []byte) {
		if len(plan) > 64 {
			plan = plan[:64]
		}
		d, pvts := fuzzComposition(seed, int(rows%300), 1+int(csize%64), plan)
		if len(pvts) == 0 {
			return
		}
		checkComposition(t, "fuzz", d, pvts, seed)
	})
}

// allocatedBytes returns the bytes f allocates on the heap.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// incomeCandidates returns Income's failing dataset at n rows and the
// candidate set a search on it runs over.
func incomeCandidates(n int) (*dataset.Dataset, []*PVT) {
	sc := workload.NewIncomeScenario(n, 28)
	opts := sc.Options
	opts.Workers = 1
	return sc.Fail, (&Explainer{Options: &opts}).Candidates(sc.Pass, sc.Fail)
}

// TestCompositionGathersOnce bounds what composing Income's candidates
// allocates: gathering each run of Selectivity repairs once must cost at
// most 30% of the bytes the sequential composition allocates.
func TestCompositionGathersOnce(t *testing.T) {
	fail, pvts := incomeCandidates(20_000)
	fail.Fingerprint() // warm the input's digests outside the measurement
	var want, got *dataset.Dataset
	ref := allocatedBytes(func() { want = composeSequential(fail, pvts, nil, rand.New(rand.NewSource(1))) })
	comp := allocatedBytes(func() { got = ComposeAll(fail, pvts, nil, rand.New(rand.NewSource(1))) })
	if !got.Equal(want) {
		t.Fatal("composition differs from the sequential reference")
	}
	t.Logf("%d candidates at %d rows: sequential %.1f MB, composition %.1f MB (%.0f%%)",
		len(pvts), fail.NumRows(), float64(ref)/1e6, float64(comp)/1e6, 100*float64(comp)/float64(ref))
	if float64(comp) > 0.3*float64(ref) {
		t.Fatalf("composition allocated %d bytes, more than 30%% of the sequential %d", comp, ref)
	}
}

// BenchmarkComposeIncome composes Income's whole candidate set onto its
// failing dataset, sequentially (one dataset per Selectivity repair) and as
// one row-list composition.
func BenchmarkComposeIncome(b *testing.B) {
	for _, rows := range []int{3_000, 100_000} {
		fail, pvts := incomeCandidates(rows)
		fail.Fingerprint()
		for _, c := range []struct {
			name    string
			compose func(*dataset.Dataset, []*PVT, map[*PVT]transform.Transformation, *rand.Rand) *dataset.Dataset
		}{{"reference", composeSequential}, {"composition", ComposeAll}} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.compose(fail, pvts, nil, rand.New(rand.NewSource(1)))
				}
			})
		}
	}
}
