package profile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Row-copying reference implementations of the Indep statistics: they copy
// the paired non-NULL rows out of the chunks and tabulate or correlate the
// copies. TestIndepStatisticsMatchReference pins the in-place Statistic
// methods to them bit for bit.

// pairedStrings extracts the rows where both string attributes are non-NULL.
func pairedStrings(d *dataset.Dataset, a, b string) [2][]string {
	ca, cb := d.Column(a), d.Column(b)
	if ca == nil || cb == nil || ca.Kind == dataset.Numeric || cb.Kind == dataset.Numeric {
		return [2][]string{}
	}
	var xs, ys []string
	for k := 0; k < ca.NumChunks(); k++ {
		va, vb := ca.Chunk(k), cb.Chunk(k)
		for i := range va.Null {
			if !va.Null[i] && !vb.Null[i] {
				xs = append(xs, va.Strs[i])
				ys = append(ys, vb.Strs[i])
			}
		}
	}
	if xs == nil {
		return [2][]string{}
	}
	return [2][]string{xs, ys}
}

// pairedNums extracts the rows where both numeric attributes are non-NULL.
func pairedNums(d *dataset.Dataset, a, b string) (xs, ys []float64) {
	ca, cb := d.Column(a), d.Column(b)
	if ca == nil || cb == nil || ca.Kind != dataset.Numeric || cb.Kind != dataset.Numeric {
		return nil, nil
	}
	for k := 0; k < ca.NumChunks(); k++ {
		va, vb := ca.Chunk(k), cb.Chunk(k)
		for i := range va.Null {
			if !va.Null[i] && !vb.Null[i] {
				xs = append(xs, va.Nums[i])
				ys = append(ys, vb.Nums[i])
			}
		}
	}
	return xs, ys
}

// contingencyTable tabulates joint counts of two categorical slices, with
// each side's levels in sorted order.
func contingencyTable(a, b []string) [][]float64 {
	levelIndex := func(xs []string) map[string]int {
		m := make(map[string]int)
		for _, x := range xs {
			if _, ok := m[x]; !ok {
				m[x] = len(m)
			}
		}
		levels := make([]string, 0, len(m))
		for k := range m {
			levels = append(levels, k)
		}
		sort.Strings(levels)
		for i, l := range levels {
			m[l] = i
		}
		return m
	}
	ai, bi := levelIndex(a), levelIndex(b)
	table := make([][]float64, len(ai))
	for i := range table {
		table[i] = make([]float64, len(bi))
	}
	for i := range a {
		table[ai[a[i]]][bi[b[i]]]++
	}
	return table
}

// referenceChi is IndepChi.Statistic over copied rows.
func referenceChi(p *IndepChi, d *dataset.Dataset) (float64, bool) {
	a := pairedStrings(p.Fit.evalView(d), p.AttrA, p.AttrB)
	if a[0] == nil {
		return 0, false
	}
	chi2, df := stats.ChiSquared(contingencyTable(a[0], a[1]))
	return chi2, stats.ChiSquaredPValue(chi2, df) <= 0.05
}

// referencePearson is IndepPearson.Statistic over copied rows.
func referencePearson(p *IndepPearson, d *dataset.Dataset) (float64, bool) {
	xs, ys := pairedNums(p.Fit.evalView(d), p.AttrA, p.AttrB)
	if xs == nil {
		return 0, false
	}
	r := stats.Pearson(xs, ys)
	return r, stats.PearsonPValue(r, len(xs)) <= 0.05
}

// indepPairDataset builds two categorical and two numeric columns of the
// given length with NULL rates drawn per column, at chunk size csize. The
// same rng state gives the same contents at every chunk size.
func indepPairDataset(rng *rand.Rand, rows, csize int) *dataset.Dataset {
	nullRate := func() float64 { return []float64{0, 0.05, 0.5, 1}[rng.Intn(4)] }
	nulls := func(rate float64) []bool {
		null := make([]bool, rows)
		for i := range null {
			null[i] = rng.Float64() < rate
		}
		return null
	}
	d := dataset.NewChunked(csize)
	la, lb := 1+rng.Intn(6), 1+rng.Intn(6)
	a, b := make([]string, rows), make([]string, rows)
	x, y := make([]float64, rows), make([]float64, rows)
	coupling, constant := rng.Float64(), rng.Intn(8) == 0
	for i := 0; i < rows; i++ {
		ia := rng.Intn(la)
		a[i] = fmt.Sprintf("a%d", ia)
		if rng.Float64() < coupling {
			b[i] = fmt.Sprintf("b%d", ia%lb)
		} else {
			b[i] = fmt.Sprintf("b%d", rng.Intn(lb))
		}
		x[i] = rng.NormFloat64() * 1e3
		y[i] = coupling*x[i] + rng.NormFloat64()
		if constant {
			y[i] = 4.25
		}
	}
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(d.AddCategoricalColumn("a", a, nulls(nullRate())))
	must(d.AddCategoricalColumn("b", b, nulls(nullRate())))
	must(d.AddNumericColumn("x", x, nulls(nullRate())))
	must(d.AddNumericColumn("y", y, nulls(nullRate())))
	return d
}

// TestIndepStatisticsMatchReference checks that the in-place Indep
// statistics equal the row-copying reference bit for bit, on random
// categorical and numeric pairs with NULLs, at chunk sizes 1, 7 and 64Ki,
// for exact and sample-fitted profiles.
func TestIndepStatisticsMatchReference(t *testing.T) {
	rowCounts := []int{0, 1, 2, 3, 17, 200, 1000}
	// Mixed-kind and missing pairs must agree too: both sides give (0, false).
	pairs := [][2]string{{"a", "b"}, {"b", "a"}, {"x", "y"}, {"y", "x"}, {"a", "x"}, {"x", "a"}, {"a", "nosuch"}}
	for trial := 0; trial < 120; trial++ {
		rows := rowCounts[trial%len(rowCounts)]
		if trial == 0 {
			rows = 3*dataset.DefaultChunkSize + 11 // several full-size chunks
		}
		seed := int64(1000 + trial)
		for _, csize := range []int{1, 7, dataset.DefaultChunkSize} {
			if rows > 5000 && csize < dataset.DefaultChunkSize {
				continue // small chunks are covered by the small trials
			}
			d := indepPairDataset(rand.New(rand.NewSource(seed)), rows, csize)
			fits := []*Bound{nil, {SampleRows: 1 + rows/3, Seed: seed}}
			if csize == 1 && rows > 200 {
				fits = fits[:1] // a one-row-chunk sample view seeds a source per row
			}
			for _, fit := range fits {
				for _, pair := range pairs {
					chi := &IndepChi{AttrA: pair[0], AttrB: pair[1], Fit: fit}
					got, gotSig := chi.Statistic(d)
					want, wantSig := referenceChi(chi, d)
					if math.Float64bits(got) != math.Float64bits(want) || gotSig != wantSig {
						t.Fatalf("trial %d rows %d csize %d fit %v: IndepChi%v = %v,%v, reference %v,%v",
							trial, rows, csize, fit != nil, pair, got, gotSig, want, wantSig)
					}
					pearson := &IndepPearson{AttrA: pair[0], AttrB: pair[1], Fit: fit}
					got, gotSig = pearson.Statistic(d)
					want, wantSig = referencePearson(pearson, d)
					if math.Float64bits(got) != math.Float64bits(want) || gotSig != wantSig {
						t.Fatalf("trial %d rows %d csize %d fit %v: IndepPearson%v = %v,%v, reference %v,%v",
							trial, rows, csize, fit != nil, pair, got, gotSig, want, wantSig)
					}
				}
			}
		}
	}
}
