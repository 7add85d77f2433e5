// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark reports the paper's headline metric (interventions) via
// ReportMetric alongside wall-clock time; `go run ./cmd/prism-tables` and
// `./cmd/prism-figures` print the full rows/series.
package dataprism_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/transform"
)

// benchFigure7 runs one Figure 7 case-study row and reports each
// technique's intervention count.
func benchFigure7(b *testing.B, scenario string) {
	b.Helper()
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		for _, row := range experiments.Figure7(1200, 4) {
			if row.Scenario == scenario {
				rows = append(rows, row)
			}
		}
	}
	if len(rows) == 0 {
		b.Fatal("scenario not found")
	}
	last := rows[len(rows)-1]
	for i, tech := range experiments.Techniques {
		c := last.Cells[i]
		if c.NA {
			b.ReportMetric(-1, tech+"-interventions")
		} else {
			b.ReportMetric(float64(c.Interventions), tech+"-interventions")
		}
	}
}

// BenchmarkFigure7Sentiment regenerates the Sentiment row of Figure 7.
func BenchmarkFigure7Sentiment(b *testing.B) { benchFigure7(b, "Sentiment") }

// BenchmarkFigure7Income regenerates the Income row of Figure 7.
func BenchmarkFigure7Income(b *testing.B) { benchFigure7(b, "Income") }

// BenchmarkFigure7Cardio regenerates the Cardiovascular row of Figure 7.
func BenchmarkFigure7Cardio(b *testing.B) { benchFigure7(b, "Cardiovascular") }

// BenchmarkFigure8Attributes regenerates Figure 8 (left): GRD/GT runtime as
// attributes grow. The benchmark time is the whole sweep.
func BenchmarkFigure8Attributes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure8Attributes([]int{10, 100, 400}, 1)
		if len(pts) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// BenchmarkFigure8PVTs regenerates Figure 8 (right): GRD/GT runtime as
// discriminative PVTs grow.
func BenchmarkFigure8PVTs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure8PVTs([]int{10, 1000, 10000}, 1)
		if len(pts) != 3 {
			b.Fatal("sweep incomplete")
		}
	}
}

// reportSweep reports the last point's per-technique interventions.
func reportSweep(b *testing.B, pts []experiments.Point) {
	b.Helper()
	last := pts[len(pts)-1]
	for i, tech := range experiments.Techniques {
		b.ReportMetric(last.Values[i], tech+"-interventions")
	}
}

// BenchmarkFigure9Attributes regenerates Figure 9(a).
func BenchmarkFigure9Attributes(b *testing.B) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure9Attributes([]int{4, 10, 16}, 2)
	}
	reportSweep(b, pts)
}

// BenchmarkFigure9PVTs regenerates Figure 9(b).
func BenchmarkFigure9PVTs(b *testing.B) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure9PVTs([]int{10, 60, 120}, 2)
	}
	reportSweep(b, pts)
}

// BenchmarkFigure9Conjunction regenerates Figure 9(c).
func BenchmarkFigure9Conjunction(b *testing.B) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure9Conjunction([]int{1, 6, 12}, 2)
	}
	reportSweep(b, pts)
}

// BenchmarkFigure9Disjunction regenerates Figure 9(d).
func BenchmarkFigure9Disjunction(b *testing.B) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure9Disjunction([]int{1, 6, 12}, 2)
	}
	reportSweep(b, pts)
}

// BenchmarkFigure6GroupTesting regenerates the Figure 6 toy comparison.
func BenchmarkFigure6GroupTesting(b *testing.B) {
	var gt, rnd float64
	for i := 0; i < b.N; i++ {
		var err error
		gt, rnd, err = experiments.Figure6(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gt, "GT-interventions")
	b.ReportMetric(rnd, "randomGT-interventions")
}

// BenchmarkGRDvsGTAdversarial regenerates the Section 5.2 rank-54 scenario:
// GRD needs 54 interventions, GT stays logarithmic (paper: 54 vs 9).
func BenchmarkGRDvsGTAdversarial(b *testing.B) {
	var grd, gt int
	for i := 0; i < b.N; i++ {
		var err error
		grd, gt, err = experiments.GRDvsGTAdversarial(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(grd), "GRD-interventions")
	b.ReportMetric(float64(gt), "GT-interventions")
}

// BenchmarkAblationBenefit compares the greedy search's intervention count
// under the four benefit-scoring modes (DESIGN.md ablation).
func BenchmarkAblationBenefit(b *testing.B) {
	var counts []int
	for i := 0; i < b.N; i++ {
		var err error
		counts, err = experiments.AblationBenefit(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, name := range []string{"full", "violation", "coverage", "random"} {
		b.ReportMetric(float64(counts[i]), name+"-interventions")
	}
}

// BenchmarkAblationDegree compares the greedy search with and without the
// high-degree-attribute prioritization (DESIGN.md ablation).
func BenchmarkAblationDegree(b *testing.B) {
	var withGraph, withoutGraph float64
	for i := 0; i < b.N; i++ {
		var err error
		withGraph, withoutGraph, err = experiments.AblationDegree(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(withGraph, "with-graph-interventions")
	b.ReportMetric(withoutGraph, "without-graph-interventions")
}

// BenchmarkAblationBisection compares min-bisection against random
// bisection in group testing (DESIGN.md ablation).
func BenchmarkAblationBisection(b *testing.B) {
	var minBis, randBis float64
	for i := 0; i < b.N; i++ {
		var err error
		minBis, randBis, err = experiments.AblationBisection(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(minBis, "min-bisection-interventions")
	b.ReportMetric(randBis, "random-bisection-interventions")
}

// --- Intervention-engine benchmarks ------------------------------------
//
// These measure the engine substrate itself on a system with ~2 ms oracle
// latency (the regime where parallel evaluation and memoization pay off;
// real external scorers are slower still).

// slowCtxSystem returns a ContextSystem with the given artificial oracle
// latency wrapped around a constant score.
func slowCtxSystem(delay time.Duration) pipeline.ContextSystem {
	return &pipeline.CtxFunc{SystemName: "slow-oracle", Score: func(ctx context.Context, d *dataset.Dataset) float64 {
		time.Sleep(delay)
		return 0.5
	}}
}

// engineBatchCandidates builds n distinct single-row candidate datasets.
func engineBatchCandidates(n int) []*dataset.Dataset {
	out := make([]*dataset.Dataset, n)
	for i := range out {
		out[i] = dataset.New().MustAddNumeric("x", []float64{float64(i)})
	}
	return out
}

// benchEngineBatch times one EvalBatch of 16 distinct candidates.
func benchEngineBatch(b *testing.B, workers int) {
	cands := engineBatchCandidates(16)
	sys := slowCtxSystem(2 * time.Millisecond)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := engine.New(sys, engine.Config{Workers: workers})
		if _, err := ev.EvalBatch(ctx, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineBatchSequential evaluates 16 independent interventions one
// at a time (Workers=1) on the 2 ms system.
func BenchmarkEngineBatchSequential(b *testing.B) { benchEngineBatch(b, 1) }

// BenchmarkEngineBatchPooled evaluates the same batch on an 8-worker pool;
// the contract is an identical result ≥2× faster.
func BenchmarkEngineBatchPooled(b *testing.B) { benchEngineBatch(b, 8) }

// BenchmarkEngineMemoCold scores 16 candidates with a fresh engine each
// time — every evaluation pays the oracle.
func BenchmarkEngineMemoCold(b *testing.B) {
	cands := engineBatchCandidates(16)
	sys := slowCtxSystem(2 * time.Millisecond)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := engine.New(sys, engine.Config{Workers: 1})
		if _, err := ev.EvalBatch(ctx, cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineMemoWarm scores the same 16 candidates against a primed
// engine — every evaluation is a fingerprint-cache hit, no oracle calls.
func BenchmarkEngineMemoWarm(b *testing.B) {
	cands := engineBatchCandidates(16)
	sys := slowCtxSystem(2 * time.Millisecond)
	ctx := context.Background()
	ev := engine.New(sys, engine.Config{Workers: 1})
	if _, err := ev.EvalBatch(ctx, cands); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalBatch(ctx, cands); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := ev.Stats().CacheHits; hits < 16*b.N {
		b.Fatalf("cache hits = %d, want ≥ %d", hits, 16*b.N)
	}
}

// benchEngineGroupTest runs the full DataPrismGT search on a synthetic
// scenario whose oracle sleeps 2 ms, for a given worker count. GT's batches
// are the two bisection halves plus the make-minimal drop set, so the
// end-to-end speedup is bounded by those widths (≈2×), while the search
// outcome stays bit-identical.
func benchEngineGroupTest(b *testing.B, workers int) {
	sc := synth.New(synth.Options{NumPVTs: 32, NumAttrs: 8, Conjunction: 2, CauseTopBenefit: true, Seed: 1})
	cs := &pipeline.CtxFunc{SystemName: "slow-synth", Score: func(ctx context.Context, d *dataset.Dataset) float64 {
		time.Sleep(2 * time.Millisecond)
		return sc.System.MalfunctionScore(d)
	}}
	var res *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &core.Explainer{ContextSystem: cs, Tau: 0.05, Seed: 1, Workers: workers}
		r, err := e.ExplainGroupTestPVTs(sc.PVTs, sc.Fail)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Interventions), "interventions")
	b.ReportMetric(float64(res.Stats.CacheHits), "cache-hits")
}

// BenchmarkEngineGroupTestWorkers1 is the sequential end-to-end GT search.
func BenchmarkEngineGroupTestWorkers1(b *testing.B) { benchEngineGroupTest(b, 1) }

// BenchmarkEngineGroupTestWorkers8 is the pooled end-to-end GT search; the
// reported interventions must match Workers1 exactly.
func BenchmarkEngineGroupTestWorkers8(b *testing.B) { benchEngineGroupTest(b, 8) }

// --- Dataset substrate benchmarks --------------------------------------
//
// These measure the data side of a search: cloning a candidate dataset,
// re-fingerprinting it for the memo key after a one-column transform, a
// full single-attribute transform apply, and predicate mask evaluation.
// Each runs under two layouts: "chunked" is the default 64Ki-row chunk
// layout; "flat" stores every column in a single chunk — the pre-chunking
// memory model, kept as the in-repo baseline that the chunked numbers in
// BENCH_pr6.json are compared against. The 100k×20 shape was the acceptance
// target of the copy-on-write work (PR 2); the 10M×20 shape is the
// acceptance target of the chunked-storage work and only runs when
// DATAPRISM_BENCH_LARGE is set — it allocates multiple GB and is too heavy
// for the CI -benchtime=1x smoke run.

// cowBenchRows returns the row counts for the dataset-substrate benchmarks.
func cowBenchRows() []int {
	rows := []int{10_000, 100_000}
	if os.Getenv("DATAPRISM_BENCH_LARGE") != "" {
		rows = append(rows, 10_000_000)
	}
	return rows
}

// benchLayout is one chunk-layout configuration of a substrate benchmark.
type benchLayout struct {
	name  string
	csize int // 0 = default chunk size
}

func benchLayouts(rows int) []benchLayout {
	return []benchLayout{{"chunked", 0}, {"flat", rows}}
}

// cowBenchDataset builds a rows×20 dataset: 10 numeric and 10 categorical
// columns, deterministic contents, chunked at csize (0 = default).
func cowBenchDataset(rows, csize int) *dataset.Dataset {
	d := dataset.NewChunked(csize)
	levels := []string{"a", "b", "c", "d"}
	for c := 0; c < 10; c++ {
		nums := make([]float64, rows)
		for i := range nums {
			nums[i] = float64((i*31+c*17)%1000) / 999
		}
		d.MustAddNumeric(fmt.Sprintf("n%d", c), nums)
	}
	for c := 0; c < 10; c++ {
		cats := make([]string, rows)
		for i := range cats {
			cats[i] = levels[(i+c)%len(levels)]
		}
		d.MustAddCategorical(fmt.Sprintf("c%d", c), cats)
	}
	return d
}

// benchSubstrate runs fn once per rows×layout configuration.
func benchSubstrate(b *testing.B, fn func(b *testing.B, d *dataset.Dataset, rows int)) {
	b.Helper()
	for _, rows := range cowBenchRows() {
		for _, lay := range benchLayouts(rows) {
			b.Run(fmt.Sprintf("rows=%d/layout=%s", rows, lay.name), func(b *testing.B) {
				d := cowBenchDataset(rows, lay.csize)
				b.ReportAllocs()
				fn(b, d, rows)
			})
		}
	}
}

// BenchmarkDatasetClone measures Dataset.Clone at search-relevant shapes.
func BenchmarkDatasetClone(b *testing.B) {
	benchSubstrate(b, func(b *testing.B, d *dataset.Dataset, rows int) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = d.Clone()
		}
	})
}

// BenchmarkFingerprintIncremental measures the engine's memo-key cost for a
// candidate dataset that differs from an already-fingerprinted source in a
// single column: clone, write one cell, fingerprint. Under the chunked
// layout the write dirties one 64Ki-row chunk, so the re-fingerprint cost is
// dirty-chunk count × chunk cost plus a cached-partial merge — sublinear in
// rows — while the flat layout re-hashes the whole column.
func BenchmarkFingerprintIncremental(b *testing.B) {
	benchSubstrate(b, func(b *testing.B, d *dataset.Dataset, rows int) {
		_ = d.Fingerprint() // warm the source digests
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp := d.Clone()
			cp.SetNum("n0", i%rows, 1234.5)
			_ = cp.Fingerprint()
		}
	})
}

// BenchmarkTransformApply measures a full single-attribute intervention the
// way the search runs it: Winsorize one numeric column of a cloned dataset
// and fingerprint the result for the score memo.
func BenchmarkTransformApply(b *testing.B) {
	benchSubstrate(b, func(b *testing.B, d *dataset.Dataset, rows int) {
		_ = d.Fingerprint() // warm the source digests
		_ = d.Rollup("n0")  // warm the chunk moments the transform gates on
		tr := &transform.Winsorize{Profile: &profile.DomainNumeric{Attr: "n0", Lo: 0.1, Hi: 0.9}}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := tr.Apply(d, rng)
			if err != nil {
				b.Fatal(err)
			}
			_ = out.Fingerprint()
		}
	})
}

// BenchmarkPredicateMask measures chunk-at-a-time evaluation of a two-clause
// predicate mask over the full dataset.
func BenchmarkPredicateMask(b *testing.B) {
	benchSubstrate(b, func(b *testing.B, d *dataset.Dataset, rows int) {
		p := dataset.And(dataset.EqStr("c0", "a"), dataset.CmpNum("n0", dataset.Gt, 0.5))
		var buf []bool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = p.Mask(d, buf)
		}
	})
}
