package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomGraph(n, attrs int, seed int64) *Dependency {
	rng := rand.New(rand.NewSource(seed))
	perPVT := make([][]string, n)
	for i := range perPVT {
		perPVT[i] = []string{fmt.Sprintf("a%d", rng.Intn(attrs))}
	}
	g := NewPVTAttr(perPVT)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return g.Dependency(nodes)
}

func BenchmarkMinBisection(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := randomGraph(n, n/4+1, 1)
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, c := d.MinBisection(rng)
				if len(a)+len(c) != n {
					b.Fatal("lost nodes")
				}
			}
		})
	}
}

func BenchmarkDependencyConstruction(b *testing.B) {
	perPVT := make([][]string, 2000)
	for i := range perPVT {
		perPVT[i] = []string{fmt.Sprintf("a%d", i%50)}
	}
	g := NewPVTAttr(perPVT)
	nodes := make([]int, 2000)
	for i := range nodes {
		nodes[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Dependency(nodes)
	}
}

// BenchmarkSynthScalePartition times the top-level partition step of
// DataPrismGT on the two synth-scale shapes: dependency graph over every
// PVT, then min-bisection. PVT i claims attribute a<i mod attrs>, as
// synth.New does, so 300k/300k has no edges and 6,400/800 is 8-cliques.
func BenchmarkSynthScalePartition(b *testing.B) {
	for _, c := range []struct{ pvts, attrs int }{{300_000, 300_000}, {6_400, 800}} {
		b.Run(fmt.Sprintf("pvts=%d/attrs=%d", c.pvts, c.attrs), func(b *testing.B) {
			perPVT := make([][]string, c.pvts)
			nodes := make([]int, c.pvts)
			for i := range perPVT {
				perPVT[i] = []string{fmt.Sprintf("a%d", i%c.attrs)}
				nodes[i] = i
			}
			g := NewPVTAttr(perPVT)
			rng := rand.New(rand.NewSource(4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, c := g.Dependency(nodes).MinBisection(rng)
				if len(a)+len(c) != len(nodes) {
					b.Fatal("lost nodes")
				}
			}
		})
	}
}

// BenchmarkSynthScaleCandidates times what one DataPrismGRD search asks of
// the PVT-attribute graph on the two synth-scale shapes: building it (which
// interns every attribute name) and one Algorithm 1 line-10 candidate query.
func BenchmarkSynthScaleCandidates(b *testing.B) {
	for _, c := range []struct{ pvts, attrs int }{{300_000, 300_000}, {6_400, 800}} {
		b.Run(fmt.Sprintf("pvts=%d/attrs=%d", c.pvts, c.attrs), func(b *testing.B) {
			perPVT := make([][]string, c.pvts)
			for i := range perPVT {
				perPVT[i] = []string{fmt.Sprintf("a%d", i%c.attrs)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := NewPVTAttr(perPVT).HighestDegreePVTs(); len(got) != c.pvts {
					b.Fatalf("%d candidates, want all %d PVTs", len(got), c.pvts)
				}
			}
		})
	}
}
