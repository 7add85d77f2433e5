package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// momentsStdDev is the population standard deviation a summary stands for,
// NaN when it summarizes nothing.
func momentsStdDev(m Moments) float64 {
	if m.Count == 0 {
		return math.NaN()
	}
	return math.Sqrt(m.M2 / float64(m.Count))
}

func TestMomentsSingleBlockMatchesFlat(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	m := MomentsOf(xs)
	if m.Mean != Mean(xs) {
		t.Fatalf("Mean = %v, want %v", m.Mean, Mean(xs))
	}
	if momentsStdDev(m) != StdDev(xs) {
		t.Fatalf("StdDev = %v, want %v", momentsStdDev(m), StdDev(xs))
	}
	lo, hi := minMax(xs)
	if m.Min != lo || m.Max != hi {
		t.Fatalf("minMax = (%v,%v), want (%v,%v)", m.Min, m.Max, lo, hi)
	}
	if m.Count != len(xs) {
		t.Fatalf("Count = %d", m.Count)
	}
}

func TestMomentsMergeMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		flat := MomentsOf(xs)
		// Random partition into blocks, merged left to right.
		merged := Moments{}
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(n-lo)
			merged = merged.Merge(MomentsOf(xs[lo:hi]))
			lo = hi
		}
		if merged.Count != flat.Count || merged.Min != flat.Min || merged.Max != flat.Max {
			t.Fatalf("trial %d: exact fields diverged: %+v vs %+v", trial, merged, flat)
		}
		scale := math.Max(math.Abs(flat.Min), math.Abs(flat.Max)) + 1
		if math.Abs(merged.Mean-flat.Mean) > 1e-9*scale {
			t.Fatalf("trial %d: mean %v vs %v", trial, merged.Mean, flat.Mean)
		}
		if math.Abs(momentsStdDev(merged)-momentsStdDev(flat)) > 1e-7*scale {
			t.Fatalf("trial %d: stddev %v vs %v", trial, momentsStdDev(merged), momentsStdDev(flat))
		}
	}
}

func TestMomentsMergeIdentity(t *testing.T) {
	m := MomentsOf([]float64{1, 2, 3})
	if got := m.Merge(Moments{}); got != m {
		t.Fatalf("merge with empty changed summary: %+v", got)
	}
	if got := (Moments{}).Merge(m); got != m {
		t.Fatalf("empty merge changed summary: %+v", got)
	}
}

func TestMomentsNaN(t *testing.T) {
	m := MomentsOf([]float64{math.NaN(), 5, 1})
	if !m.HasNaN() {
		t.Fatal("HasNaN = false")
	}
	if m.Min != 1 || m.Max != 5 {
		t.Fatalf("NaN-skipping extrema: got (%v,%v)", m.Min, m.Max)
	}
	all := MomentsOf([]float64{math.NaN(), math.NaN()})
	if !math.IsNaN(all.Min) || !math.IsNaN(all.Max) {
		t.Fatalf("all-NaN extrema: got (%v,%v)", all.Min, all.Max)
	}
	// Layout invariance of extrema merges even with NaN blocks.
	a := MomentsOf([]float64{5}).Merge(MomentsOf([]float64{math.NaN(), 1}))
	if a.Min != 1 || a.Max != 5 {
		t.Fatalf("merged extrema with NaN block: got (%v,%v)", a.Min, a.Max)
	}
}

func TestSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200_000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	// Build per-block sketches and merge, as the chunked column does.
	var sk *QuantileSketch
	block := 1 << 14
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		part := append([]float64(nil), xs[lo:hi]...)
		sort.Float64s(part)
		sk = sk.Merge(SketchSorted(part, SketchSize))
	}
	if sk.N() != n {
		t.Fatalf("N = %d, want %d", sk.N(), n)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := sk.Quantile(q)
		exact := QuantileSorted(sorted, q)
		// Rank error tolerance: RankError fraction of n, converted to value
		// space via the uniform density (1000/n per rank).
		tol := sk.RankError()*1000 + 1e-9
		if math.Abs(got-exact) > tol {
			t.Errorf("q=%.2f: sketch %v, exact %v (tol %v)", q, got, exact, tol)
		}
	}
}

func TestSketchSmallPopulationExact(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	sk := SketchSorted(sorted, SketchSize)
	for _, q := range []float64{0, 0.5, 1} {
		got := sk.Quantile(q)
		want := sorted[int(q*float64(len(sorted)-1))]
		if got != want {
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
	if sk.Quantile(0.5) != 3 {
		t.Errorf("median = %v", sk.Quantile(0.5))
	}
}

func TestSketchDeterministic(t *testing.T) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = float64(i % 97)
	}
	sort.Float64s(xs)
	a := SketchSorted(xs, SketchSize).Merge(SketchSorted(xs, SketchSize))
	b := SketchSorted(xs, SketchSize).Merge(SketchSorted(xs, SketchSize))
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("nondeterministic sketch at q=%v", q)
		}
	}
}

func TestApportionSample(t *testing.T) {
	sizes := []int{65536, 65536, 65536, 1000}
	quotas := ApportionSample(sizes, 10_000)
	sum := 0
	for i, q := range quotas {
		if q < 0 || q > sizes[i] {
			t.Fatalf("quota[%d] = %d out of range", i, q)
		}
		sum += q
	}
	if sum != 10_000 {
		t.Fatalf("quotas sum to %d, want 10000", sum)
	}
	// cap >= total: every row sampled.
	all := ApportionSample([]int{5, 7}, 100)
	if all[0] != 5 || all[1] != 7 {
		t.Fatalf("over-cap quotas = %v", all)
	}
	// Deterministic.
	again := ApportionSample(sizes, 10_000)
	for i := range quotas {
		if quotas[i] != again[i] {
			t.Fatalf("nondeterministic apportionment at %d", i)
		}
	}
}

func TestSampleIndices(t *testing.T) {
	idx := SampleIndices(1000, 100, 42)
	if len(idx) != 100 {
		t.Fatalf("len = %d", len(idx))
	}
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("not strictly ascending at %d: %d, %d", i, idx[i-1], idx[i])
		}
	}
	if idx[0] < 0 || idx[len(idx)-1] >= 1000 {
		t.Fatalf("out of range: %d..%d", idx[0], idx[len(idx)-1])
	}
	again := SampleIndices(1000, 100, 42)
	for i := range idx {
		if idx[i] != again[i] {
			t.Fatal("same seed produced a different sample")
		}
	}
	other := SampleIndices(1000, 100, 43)
	same := true
	for i := range idx {
		if idx[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical samples")
	}
	if got := SampleIndices(5, 10, 1); len(got) != 5 {
		t.Fatalf("k>n: len = %d, want 5", len(got))
	}
}

func TestMixSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for start := uint64(0); start < 64; start++ {
		s := MixSeed(99, start*65536)
		if seen[s] {
			t.Fatalf("seed collision at stratum %d", start)
		}
		seen[s] = true
	}
}

func TestHoeffding(t *testing.T) {
	eps := HoeffdingEpsilon(10_000, 0.05)
	if eps < 0.013 || eps > 0.014 {
		t.Fatalf("eps = %v", eps) // sqrt(ln40/20000) ≈ 0.01358
	}
	m := HoeffdingSampleSize(eps, 0.05)
	if m < 9_999 || m > 10_001 {
		t.Fatalf("inverse sample size = %d", m)
	}
	if got := HoeffdingEpsilon(0, 0.05); !math.IsInf(got, 1) {
		t.Fatalf("empty sample eps = %v", got)
	}
}

func TestNormalQuantile(t *testing.T) {
	for _, tc := range []struct{ p, want float64 }{
		{0.975, 1.959964}, {0.95, 1.644854}, {0.5, 0}, {0.025, -1.959964},
	} {
		if got := normalQuantile(tc.p); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("normalQuantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if eps := CLTEpsilon(100, 1, 0.05); math.Abs(eps-0.195996) > 1e-4 {
		t.Errorf("CLTEpsilon = %v", eps)
	}
}
