package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomGraph returns n PVTs with one attribute each, drawn from attrs
// names, and the list of all of them.
func randomGraph(n, attrs int, seed int64) (*PVTAttr, []int) {
	rng := rand.New(rand.NewSource(seed))
	perPVT := make([][]string, n)
	for i := range perPVT {
		perPVT[i] = []string{fmt.Sprintf("a%d", rng.Intn(attrs))}
	}
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return newGraph(perPVT), nodes
}

func BenchmarkMinBisection(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, nodes := randomGraph(n, n/4+1, 1)
			rng := rand.New(rand.NewSource(2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, c := g.Bisect(nodes, rng)
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
	g := newGraph(perPVT)
	nodes := make([]int, 2000)
	for i := range nodes {
		nodes[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.dependency(nodes)
	}
}

// BenchmarkSynthScalePartition times the top-level partition step of
// DataPrismGT on the two synth-scale shapes: Bisect over every PVT. PVT i
// claims attribute a<i mod attrs>, as synth.New does, so 300k/300k has no
// edges and 6,400/800 is 8-cliques.
func BenchmarkSynthScalePartition(b *testing.B) {
	for _, c := range []struct{ pvts, attrs int }{{300_000, 300_000}, {6_400, 800}} {
		b.Run(fmt.Sprintf("pvts=%d/attrs=%d", c.pvts, c.attrs), func(b *testing.B) {
			perPVT := make([][]string, c.pvts)
			nodes := make([]int, c.pvts)
			for i := range perPVT {
				perPVT[i] = []string{fmt.Sprintf("a%d", i%c.attrs)}
				nodes[i] = i
			}
			g := newGraph(perPVT)
			rng := rand.New(rand.NewSource(4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, c := g.Bisect(nodes, rng)
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
				if got := newGraph(perPVT).HighestDegreePVTs(); len(got) != c.pvts {
					b.Fatalf("%d candidates, want all %d PVTs", len(got), c.pvts)
				}
			}
		})
	}
}
