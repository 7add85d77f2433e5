package dataset

import (
	"bytes"
	"math/rand"
	"testing"
)

func benchDataset(rows int) *Dataset {
	rng := rand.New(rand.NewSource(1))
	nums := make([]float64, rows)
	cats := make([]string, rows)
	for i := 0; i < rows; i++ {
		nums[i] = rng.Float64()
		cats[i] = []string{"a", "b", "c"}[rng.Intn(3)]
	}
	d := New()
	d.MustAddNumeric("x", nums)
	d.MustAddCategorical("g", cats)
	return d
}

func BenchmarkClone(b *testing.B) {
	d := benchDataset(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Clone()
	}
}

func BenchmarkSelectRows(b *testing.B) {
	d := benchDataset(10000)
	idx := make([]int, 5000)
	for i := range idx {
		idx[i] = i * 2
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.SelectRows(idx)
	}
}

func BenchmarkPredicateSelectivity(b *testing.B) {
	d := benchDataset(10000)
	p := And(EqStr("g", "a"), Clause{Attr: "x", Op: Gt, NumVal: 0.5, IsNum: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Selectivity(d)
	}
}

func BenchmarkCSVRoundTrip(b *testing.B) {
	d := benchDataset(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadCSV(&buf, InferOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
