// Package experiments is the reproduction harness for every table and
// figure of the paper's evaluation (Section 5 and Appendix D). Each
// function regenerates one artifact — the same rows or series the paper
// reports — over this repository's substrates. See EXPERIMENTS.md for the
// paper-vs-measured record.
package experiments

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
	"repro/internal/transform"
	"repro/internal/workload"
)

// Technique names, in the paper's column order (Figure 7).
var Techniques = []string{"DataPrismGRD", "DataPrismGT", "BugDoc", "Anchor", "GrpTest"}

// Cell is one technique's outcome on one scenario.
type Cell struct {
	Interventions int
	Seconds       float64
	// NA marks that the technique could not identify the cause (the
	// paper's "NA" entries, e.g. group testing under a violated A3).
	NA bool
}

// Row is one scenario's outcomes across all techniques, keyed in
// Techniques order.
type Row struct {
	Scenario string
	Cells    []Cell
	// PassScore / FailScore document the scenario instance.
	PassScore, FailScore float64
	Discriminative       int
}

func caseStudy(name string, rows int, seed int64) *workload.Scenario {
	switch name {
	case "Sentiment":
		return workload.NewSentimentScenario(rows, seed)
	case "Income":
		return workload.NewIncomeScenario(rows, seed)
	case "Cardiovascular":
		return workload.NewCardioScenario(rows, seed)
	default:
		panic("unknown case study " + name)
	}
}

// runAll executes the five techniques on pre-discovered PVTs.
func runAll(sys pipeline.System, tau float64, seed int64, pvts []*core.PVT, fail *dataset.Dataset) []Cell {
	cells := make([]Cell, len(Techniques))
	run := func(i int, f func() (*core.Result, error)) {
		start := time.Now()
		res, err := f()
		secs := time.Since(start).Seconds()
		switch {
		case err == nil:
			cells[i] = Cell{Interventions: res.Interventions, Seconds: secs}
		case errors.Is(err, core.ErrNoExplanation):
			cells[i] = Cell{Interventions: res.Interventions, Seconds: secs, NA: true}
		default:
			cells[i] = Cell{NA: true, Seconds: secs}
		}
	}
	ctx := context.Background()
	e := &core.Explainer{System: sys, Tau: tau, Seed: seed}
	run(0, func() (*core.Result, error) { return e.ExplainGreedyPVTsContext(ctx, pvts, fail) })
	run(1, func() (*core.Result, error) { return e.ExplainGroupTestPVTsContext(ctx, pvts, fail) })
	// The baselines run with a budget of 100,000 interventions, ten times
	// DataPrism's default.
	b := &core.Explainer{System: sys, Tau: tau, Seed: seed, MaxInterventions: 100000}
	run(2, func() (*core.Result, error) { return b.ExplainBugDocPVTsContext(ctx, pvts, fail) })
	run(3, func() (*core.Result, error) { return b.ExplainAnchorPVTsContext(ctx, pvts, fail) })
	grpTest := *b
	grpTest.RandomBisection = true
	run(4, func() (*core.Result, error) { return grpTest.ExplainGroupTestPVTsContext(ctx, pvts, fail) })
	return cells
}

// Figure7 regenerates the case-study comparison table: interventions and
// runtime for the five techniques on the three case studies.
func Figure7(rows int, seed int64) []Row {
	var out []Row
	for _, name := range []string{"Sentiment", "Income", "Cardiovascular"} {
		sc := caseStudy(name, rows, seed)
		pvts := core.DiscoverPVTs(sc.Pass, sc.Fail, sc.Options)
		row := Row{
			Scenario:       name,
			PassScore:      sc.System.MalfunctionScore(sc.Pass),
			FailScore:      sc.System.MalfunctionScore(sc.Fail),
			Discriminative: len(pvts),
			Cells:          runAll(sc.System, sc.Tau, seed, pvts, sc.Fail),
		}
		out = append(out, row)
	}
	return out
}

// Point is one (x, series values) sample of a figure.
type Point struct {
	X      int
	Values []float64 // keyed by the figure's series
}

// Figure8Attributes regenerates Figure 8 (left): runtime of GRD and GT as
// the number of attributes grows (PVT count scales 8× the attributes).
// Series: [GRD seconds, GT seconds].
func Figure8Attributes(attrCounts []int, seed int64) []Point {
	var out []Point
	for _, attrs := range attrCounts {
		sc := synth.New(synth.Options{
			NumPVTs:         8 * attrs,
			NumAttrs:        attrs,
			Conjunction:     1,
			Seed:            seed,
			CauseTopBenefit: true,
		})
		out = append(out, Point{X: attrs, Values: timeGRDGT(sc, seed)})
	}
	return out
}

// Figure8PVTs regenerates Figure 8 (right): runtime of GRD and GT as the
// number of discriminative PVTs grows. Each PVT has a distinct attribute,
// matching the sweep's independence of the attribute axis.
// Series: [GRD seconds, GT seconds].
func Figure8PVTs(pvtCounts []int, seed int64) []Point {
	var out []Point
	for _, k := range pvtCounts {
		sc := synth.New(synth.Options{
			NumPVTs:         k,
			NumAttrs:        k,
			Conjunction:     1,
			Seed:            seed,
			CauseTopBenefit: true,
		})
		out = append(out, Point{X: k, Values: timeGRDGT(sc, seed)})
	}
	return out
}

func timeGRDGT(sc *synth.Scenario, seed int64) []float64 {
	grd := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed}
	start := time.Now()
	if _, err := grd.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail); err != nil {
		return []float64{-1, -1}
	}
	grdSecs := time.Since(start).Seconds()

	gt := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed}
	start = time.Now()
	if _, err := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail); err != nil {
		return []float64{grdSecs, -1}
	}
	return []float64{grdSecs, time.Since(start).Seconds()}
}

// avgInterventions runs all five techniques over several seeds and returns
// mean intervention counts in Techniques order (NA runs score the budget).
func avgInterventions(build func(seed int64) *synth.Scenario, seeds int, tau float64) []float64 {
	sums := make([]float64, len(Techniques))
	for s := 0; s < seeds; s++ {
		sc := build(int64(s))
		cells := runAll(sc.System, tau, int64(s), sc.PVTs, sc.Fail)
		for i, c := range cells {
			sums[i] += float64(c.Interventions)
		}
	}
	for i := range sums {
		sums[i] /= float64(seeds)
	}
	return sums
}

// Figure9Attributes regenerates Figure 9(a): average interventions of the
// five techniques as the number of attributes grows (single root cause).
func Figure9Attributes(attrCounts []int, seeds int) []Point {
	var out []Point
	for _, attrs := range attrCounts {
		a := attrs
		vals := avgInterventions(func(seed int64) *synth.Scenario {
			return synth.New(synth.Options{
				NumPVTs:         8 * a,
				NumAttrs:        a,
				Conjunction:     1,
				Seed:            seed,
				CauseTopBenefit: true,
			})
		}, seeds, 0.05)
		out = append(out, Point{X: attrs, Values: vals})
	}
	return out
}

// Figure9PVTs regenerates Figure 9(b): average interventions as the number
// of discriminative PVTs grows, 15 attributes fixed.
func Figure9PVTs(pvtCounts []int, seeds int) []Point {
	var out []Point
	for _, k := range pvtCounts {
		kk := k
		vals := avgInterventions(func(seed int64) *synth.Scenario {
			return synth.New(synth.Options{
				NumPVTs:         kk,
				NumAttrs:        15,
				Conjunction:     1,
				Seed:            seed,
				CauseTopBenefit: true,
			})
		}, seeds, 0.05)
		out = append(out, Point{X: k, Values: vals})
	}
	return out
}

// Figure9Conjunction regenerates Figure 9(c): average interventions as the
// size of a single conjunctive root cause grows (15 attributes, 136 PVTs).
func Figure9Conjunction(sizes []int, seeds int) []Point {
	var out []Point
	for _, size := range sizes {
		sz := size
		vals := avgInterventions(func(seed int64) *synth.Scenario {
			return synth.New(synth.Options{
				NumPVTs:         136,
				NumAttrs:        15,
				Conjunction:     sz,
				Seed:            seed,
				CauseTopBenefit: true,
			})
		}, seeds, 0.05)
		out = append(out, Point{X: size, Values: vals})
	}
	return out
}

// Figure9Disjunction regenerates Figure 9(d): average interventions as the
// number of disjunctive root causes grows (15 attributes, 136 PVTs).
func Figure9Disjunction(sizes []int, seeds int) []Point {
	var out []Point
	for _, size := range sizes {
		sz := size
		vals := avgInterventions(func(seed int64) *synth.Scenario {
			return synth.New(synth.Options{
				NumPVTs:         136,
				NumAttrs:        15,
				Disjunction:     sz,
				Seed:            seed,
				CauseTopBenefit: true,
			})
		}, seeds, 0.05)
		out = append(out, Point{X: size, Values: vals})
	}
	return out
}

// GRDvsGTAdversarial regenerates the Section 5.2 comparison: the true
// cause's benefit ranks 54th among 60 discriminative PVTs, so GRD needs 54
// interventions while GT stays logarithmic. Returns (GRD, GT) interventions.
func GRDvsGTAdversarial(seed int64) (grd, gt int, err error) {
	sc := synth.New(synth.Options{
		NumPVTs:           60,
		NumAttrs:          1,
		Conjunction:       1,
		Seed:              seed,
		CauseCoverageRank: 54,
	})
	eg := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed}
	rg, err := eg.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		return 0, 0, err
	}
	et := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed}
	rt, err := et.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		return rg.Interventions, 0, err
	}
	return rg.Interventions, rt.Interventions, nil
}

// Figure6 regenerates the toy comparison of Figure 6: interventions of
// DataPrismGT vs traditional adaptive group testing on the 8-PVT example,
// averaged over seeds.
func Figure6(seeds int) (gtAvg, randAvg float64, err error) {
	var gtSum, randSum int
	for s := 0; s < seeds; s++ {
		sc := synth.Figure6Scenario()
		gt := &core.Explainer{System: sc.System, Tau: 0.05, Seed: int64(s)}
		r1, e1 := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if e1 != nil {
			return 0, 0, e1
		}
		gtSum += r1.Interventions

		sc2 := synth.Figure6Scenario()
		rnd := &core.Explainer{System: sc2.System, Tau: 0.05, Seed: int64(s), RandomBisection: true}
		r2, e2 := rnd.ExplainGroupTestPVTsContext(context.Background(), sc2.PVTs, sc2.Fail)
		if e2 != nil {
			return 0, 0, e2
		}
		randSum += r2.Interventions
	}
	return float64(gtSum) / float64(seeds), float64(randSum) / float64(seeds), nil
}

// AblationBenefit compares intervention counts of the greedy search under
// the four benefit modes on a scenario where the cause has top coverage.
// Returns counts keyed by [full, violation-only, coverage-only, random].
func AblationBenefit(seed int64) ([]int, error) {
	sc := synth.New(synth.Options{
		NumPVTs: 40, NumAttrs: 1, Conjunction: 1, Seed: seed, CauseCoverageRank: 1,
	})
	modes := []core.BenefitMode{core.BenefitFull, core.BenefitViolationOnly, core.BenefitCoverageOnly, core.BenefitRandom}
	out := make([]int, len(modes))
	for i, m := range modes {
		e := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Benefit: m}
		res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err != nil {
			return nil, err
		}
		out[i] = res.Interventions
	}
	return out, nil
}

// AblationDegree compares the greedy search with and without the
// high-degree-attribute prioritization (Observation O1) on a scenario where
// the cause's attribute carries many discriminative PVTs. Returns
// (withGraph, withoutGraph) average interventions over seeds.
func AblationDegree(seeds int) (withGraph, withoutGraph float64, err error) {
	var wg, wo int
	for s := 0; s < seeds; s++ {
		sc := degreeScenario(int64(s))
		// Both arms use random benefit so the comparison isolates the
		// graph-priority effect.
		e1 := &core.Explainer{System: sc.System, Tau: 0.05, Seed: int64(s), Benefit: core.BenefitRandom}
		r1, err1 := e1.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if err1 != nil {
			return 0, 0, err1
		}
		wg += r1.Interventions

		sc2 := degreeScenario(int64(s))
		e2 := &core.Explainer{System: sc2.System, Tau: 0.05, Seed: int64(s), DisableGraphPriority: true, Benefit: core.BenefitRandom}
		r2, err2 := e2.ExplainGreedyPVTsContext(context.Background(), sc2.PVTs, sc2.Fail)
		if err2 != nil {
			return 0, 0, err2
		}
		wo += r2.Interventions
	}
	return float64(wg) / float64(seeds), float64(wo) / float64(seeds), nil
}

// degreeScenario puts the cause on a crowded attribute (degree structure
// informative) with uniform coverages (benefit uninformative).
func degreeScenario(seed int64) *synth.Scenario {
	sc := synth.New(synth.Options{NumPVTs: 40, NumAttrs: 20, Conjunction: 1, Seed: seed})
	cause := sc.GroundTruth[0][0]
	causeAttr := sc.PVTs[cause].Attributes()[0]
	// Crowd the cause's attribute: a third of the PVTs share it.
	for i, p := range sc.PVTs {
		sp := p.Profile.(*synth.Profile)
		sp.Cov = 0.5
		if i%3 == 0 {
			sp.Attrs = []string{causeAttr}
		}
	}
	return sc
}

// AblationBisection compares min-bisection against random bisection in the
// group-testing search on an attribute-aligned scenario: PVTs sharing an
// attribute have correlated helpfulness, the regime Section 4.4's
// graph-guided partitioning targets. Returns (minBisection,
// randomBisection) average interventions over seeds.
func AblationBisection(seeds int) (minBis, randBis float64, err error) {
	var mbSum, rbSum int
	for s := 0; s < seeds; s++ {
		sc := alignedScenario()
		gt := &core.Explainer{System: sc.System, Tau: 0.05, Seed: int64(s)}
		r1, e1 := gt.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		if e1 != nil {
			return 0, 0, e1
		}
		mbSum += r1.Interventions

		sc2 := alignedScenario()
		rnd := &core.Explainer{System: sc2.System, Tau: 0.05, Seed: int64(s), RandomBisection: true}
		r2, e2 := rnd.ExplainGroupTestPVTsContext(context.Background(), sc2.PVTs, sc2.Fail)
		if e2 != nil {
			return 0, 0, e2
		}
		rbSum += r2.Interventions
	}
	return float64(mbSum) / float64(seeds), float64(rbSum) / float64(seeds), nil
}

// alignedScenario builds 16 PVTs in attribute-sharing pairs with the
// pair {X1, X2} as a conjunctive ground truth.
func alignedScenario() *synth.Scenario {
	const k = 16
	profiles := make([]*synth.Profile, k)
	pvts := make([]*core.PVT, k)
	for i := 0; i < k; i++ {
		profiles[i] = &synth.Profile{
			Index: i,
			Attrs: []string{string(rune('a' + i/2))},
			Cov:   0.5,
		}
		pvts[i] = &core.PVT{
			Profile:    profiles[i],
			Transforms: []transform.Transformation{&synth.Transform{P: profiles[i]}},
		}
	}
	sys := &synth.DNFSystem{Label: "aligned", Disjuncts: [][]int{{0, 1}}, Profiles: profiles}
	return &synth.Scenario{PVTs: pvts, Fail: synth.FailingDataset(k), System: sys, GroundTruth: [][]int{{0, 1}}}
}
