package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// benchData builds a passing/failing dataset pair large enough that the
// coverage term of Benefit (an O(rows) scan per transformation) dominates,
// and discovers the discriminative PVTs between them.
func benchData(rows int) (pass, fail *dataset.Dataset, pvts []*PVT) {
	nums := make([]float64, rows)
	cats := make([]string, rows)
	for i := 0; i < rows; i++ {
		nums[i] = math.Sin(float64(i)) * 10
		cats[i] = string(rune('a' + i%4))
	}
	pass = dataset.New()
	for _, name := range []string{"n1", "n2", "n3", "n4"} {
		pass.MustAddNumeric(name, nums)
	}
	pass.MustAddCategorical("c1", cats).MustAddCategorical("c2", cats)

	fail = pass.Clone()
	for i := 0; i < rows; i += 3 {
		fail.SetNum("n1", i, 500+float64(i)) // out of domain + outlier
		fail.SetStr("c1", i, "zz")           // out of categorical domain
	}
	for i := 0; i < rows; i += 5 {
		fail.SetNull("n2", i) // missing
	}

	opts := profile.Options{}
	opts.Workers = 1
	pvts = DiscoverPVTs(pass, fail, opts)
	return pass, fail, pvts
}

// TestBenefitCachedMatchesUncached pins the cache to pure memoization: same
// scores as direct computation, served again after a hit, and recomputed
// (not served stale) once the dataset's content changes.
func TestBenefitCachedMatchesUncached(t *testing.T) {
	_, fail, pvts := benchData(400)
	if len(pvts) == 0 {
		t.Fatal("no discriminative PVTs in benchmark fixture")
	}
	cov := newCoverageCache(len(pvts))
	for i, p := range pvts {
		want := Benefit(p, fail)
		if got := benefitCached(i, p, fail, cov); got != want {
			t.Errorf("%s: cached = %g, uncached = %g", p, got, want)
		}
	}
	if cov.hits != 0 {
		t.Errorf("first pass had %d hits, want 0", cov.hits)
	}
	misses := cov.misses
	for i, p := range pvts {
		benefitCached(i, p, fail, cov)
	}
	if cov.misses != misses {
		t.Errorf("second pass recomputed %d coverages, want all hits", cov.misses-misses)
	}

	// Mutating the dataset must change the fingerprint and bypass the
	// stale entries. Repairing every other corrupted n1 cell changes the
	// coverage of the n1 PVTs' repairs.
	mutated := fail.Clone()
	for i := 0; i < mutated.NumRows(); i += 6 {
		mutated.SetNum("n1", i, 0)
	}
	changed := 0
	for i, p := range pvts {
		want := Benefit(p, mutated)
		if maxCoverage(p.Transforms, mutated) != maxCoverage(p.Transforms, fail) {
			changed++
		}
		if got := benefitCached(i, p, mutated, cov); got != want {
			t.Errorf("%s after mutation: cached = %g, uncached = %g", p, got, want)
		}
	}
	if changed == 0 {
		t.Fatal("the mutation changed no PVT's coverage: the case proves nothing")
	}
}

// The benchmarks replay the greedy loop's access pattern: every remaining
// candidate PVT is re-ranked against the same current dataset once per
// round. rounds×|PVTs| scores touch only |PVTs| distinct (transformation,
// fingerprint) pairs, which is exactly what the cache collapses.
func benchmarkBenefit(b *testing.B, cached bool) {
	_, fail, pvts := benchData(4000)
	if len(pvts) == 0 {
		b.Fatal("no discriminative PVTs in benchmark fixture")
	}
	const rounds = 16
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var cov *coverageCache
		if cached {
			cov = newCoverageCache(len(pvts))
		}
		sink := 0.0
		for r := 0; r < rounds; r++ {
			for i, p := range pvts {
				sink += benefitCached(i, p, fail, cov)
			}
		}
		_ = sink
	}
}

func BenchmarkBenefitUncached(b *testing.B) { benchmarkBenefit(b, false) }
func BenchmarkBenefitCached(b *testing.B)   { benchmarkBenefit(b, true) }
