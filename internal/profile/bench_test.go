package profile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func benchTable(rows, attrs int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(1))
	d := dataset.New()
	for a := 0; a < attrs; a++ {
		if a%2 == 0 {
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
			d.MustAddNumeric(fmt.Sprintf("n%d", a), vals)
		} else {
			vals := make([]string, rows)
			for i := range vals {
				vals[i] = []string{"x", "y", "z"}[rng.Intn(3)]
			}
			d.MustAddCategorical(fmt.Sprintf("c%d", a), vals)
		}
	}
	return d
}

func BenchmarkDiscover(b *testing.B) {
	d := benchTable(2000, 10)
	opts := Options{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Discover(d, opts); len(got) == 0 {
			b.Fatal("no profiles")
		}
	}
}

func BenchmarkDiscoverExtended(b *testing.B) {
	d := benchTable(2000, 10)
	opts := Options{}
	opts.Classes = map[string]bool{"distribution": true, "fd": true, "indep-causal": true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Discover(d, opts); len(got) == 0 {
			b.Fatal("no profiles")
		}
	}
}

func BenchmarkDiscriminative(b *testing.B) {
	pass := benchTable(2000, 10)
	fail := pass.Clone()
	// Shift one numeric attribute and corrupt one categorical domain.
	c := fail.MutableColumn("n0")
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			w.Nums[i] = w.Nums[i]*3 + 10
		}
	}
	fail.SetStr("c1", 0, "CORRUPT")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Discriminative(pass, fail, Options{}, 1e-9); len(got) == 0 {
			b.Fatal("nothing discriminative")
		}
	}
}

func BenchmarkViolationIndepChi(b *testing.B) {
	d := benchTable(5000, 4)
	p := &IndepChi{AttrA: "c1", AttrB: "c3", Alpha: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Violation(d)
	}
}

// BenchmarkExactOrderStats measures one evaluation of the two profiles that
// need exact order statistics of a column — exact-fit Distribution.Deviation
// (deciles) and Frequency.Violation (median gap between sorted values).
// "same" re-evaluates one dataset; "written" evaluates a clone with one cell
// rewritten, the shape of a candidate intervention's output.
func BenchmarkExactOrderStats(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		d := benchTable(rows, 1)
		evals := []struct {
			name string
			eval func(*dataset.Dataset) float64
		}{
			{"distribution", DiscoverDistribution(d, "n0").Deviation},
			{"frequency", DiscoverFrequency(d, "n0").Violation},
		}
		for _, ev := range evals {
			b.Run(fmt.Sprintf("%s/rows=%d/same", ev.name, rows), func(b *testing.B) {
				ev.eval(d)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.eval(d)
				}
			})
			b.Run(fmt.Sprintf("%s/rows=%d/written", ev.name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := d.Clone()
					w.SetNum("n0", i%rows, float64(i))
					b.StartTimer()
					ev.eval(w)
				}
			})
		}
	}
}
