package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

// BenchmarkReadCSVFile reads a Cardio-shaped file with its schema pinned,
// as the benchmark's case studies read theirs.
func BenchmarkReadCSVFile(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		path := filepath.Join(b.TempDir(), "cardio.csv")
		data := cardioShapedCSV(b, rows)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := ReadCSVFile(path, InferOptions{Kinds: cardioKinds}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
