package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestDrawPermIsRandPerm: drawPerm makes exactly rand.Perm's draws, so the
// start bisection and every later use of the rng are those of the
// RandomBisection draw.
func TestDrawPermIsRandPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 1000, 300_000} {
		for _, seed := range []int64{0, 1, 7, 42, -3} {
			want := rand.New(rand.NewSource(seed))
			got := rand.New(rand.NewSource(seed))
			perm := want.Perm(n)
			drawn := make([]int32, n)
			drawPerm(drawn, got)
			for i, p := range perm {
				if int(drawn[i]) != p {
					t.Fatalf("n=%d seed=%d: drawn[%d] = %d, rand.Perm %d", n, seed, i, drawn[i], p)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n=%d seed=%d: next Int63 = %d after drawPerm, %d after rand.Perm", n, seed, g, w)
			}
		}
	}
}

// FuzzBisectSequenceMatchesReference drives one PVTAttr through GT's call
// pattern — Bisect on all PVTs, then depth first on the nested halves —
// and then on unrelated, larger and unsorted subsets. Every bisection must
// equal a fresh map-based reference bisection of the same subset, so
// nothing a call leaves in the workspace reaches the next.
func FuzzBisectSequenceMatchesReference(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(shape), uint8(shape), uint16(40*shape+9))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		attrs := shapedAttrs(int(shape)%numShapes, 1+int(n)%300, rng)
		g, ref := newGraph(attrs), newRefPVTAttr(attrs)
		bisect := func(x []int) (a, b []int) {
			t.Helper()
			s := rng.Int63()
			a, b = g.Bisect(x, rand.New(rand.NewSource(s)))
			ra, rb, _ := ref.Dependency(x).MinBisection(rand.New(rand.NewSource(s)))
			if !slices.Equal(a, ra) || !slices.Equal(b, rb) {
				t.Fatalf("Bisect(%v) = %v | %v, reference %v | %v", x, a, b, ra, rb)
			}
			return a, b
		}
		var descend func(x []int)
		descend = func(x []int) {
			if len(x) > 1 {
				a, b := bisect(x)
				descend(a)
				descend(b)
			}
		}
		all := make([]int, len(attrs))
		for i := range all {
			all[i] = i
		}
		descend(all)
		for k := 0; k < 4; k++ {
			bisect(randomSubset(len(attrs), rng))
		}
		bisect(all)
	})
}

// allocatedBytes returns the bytes f allocates per call, averaged over
// runs calls after one warm-up call.
func allocatedBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestBisectAllocatesOnlyItsHalves: once a bisection of n PVTs has sized
// the workspace, bisecting m ≤ n of them allocates the two halves (8·m
// bytes) and a size-class remainder, nothing that grows with the graph.
func TestBisectAllocatesOnlyItsHalves(t *testing.T) {
	const n, slack = 4000, 1 << 10
	for shape := 0; shape < numShapes; shape++ {
		g := newGraph(shapedAttrs(shape, n, rand.New(rand.NewSource(int64(shape)))))
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		rng := rand.New(rand.NewSource(1))
		g.Bisect(all, rng)
		for _, m := range []int{n, n / 2, 1000, 3} {
			x := all[:m]
			if got := allocatedBytes(3, func() { g.Bisect(x, rng) }); got > uint64(8*m+slack) {
				t.Errorf("shape %d: Bisect of %d PVTs allocates %d bytes, want at most %d", shape, m, got, 8*m+slack)
			}
		}
	}
}

// TestNewPVTAttrKeepsNoAttributeLists: building the graph over n
// single-attribute PVTs allocates a fixed number of arrays, none per PVT.
func TestNewPVTAttrKeepsNoAttributeLists(t *testing.T) {
	for _, n := range []int{1000, 100_000} {
		attrs := make([][]string, n)
		for i := range attrs {
			attrs[i] = []string{fmt.Sprintf("a%d", i)}
		}
		allocs := testing.AllocsPerRun(3, func() { newGraph(attrs) })
		if allocs > 16 {
			t.Errorf("NewPVTAttr over %d PVTs made %v allocations, want a fixed few", n, allocs)
		}
	}
}
