package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refPVTAttr is the map-based PVT-attribute graph the dense PVTAttr
// replaced, kept as the reference the equivalence tests compare against.
// Unlike PVTAttr it counts an attribute a PVT lists twice twice, so the
// comparisons use PVTs without repeated attributes.
type refPVTAttr struct {
	pvtsOf  map[string][]int // attribute -> pvt indices (static)
	removed []bool           // pvt index -> explored flag
}

func newRefPVTAttr(attrsPerPVT [][]string) *refPVTAttr {
	g := &refPVTAttr{
		pvtsOf:  make(map[string][]int),
		removed: make([]bool, len(attrsPerPVT)),
	}
	for i, attrs := range attrsPerPVT {
		for _, a := range attrs {
			g.pvtsOf[a] = append(g.pvtsOf[a], i)
		}
	}
	return g
}

func (g *refPVTAttr) Remove(pvt int) {
	if pvt >= 0 && pvt < len(g.removed) {
		g.removed[pvt] = true
	}
}

func (g *refPVTAttr) Active() []int {
	var out []int
	for i, r := range g.removed {
		if !r {
			out = append(out, i)
		}
	}
	return out
}

func (g *refPVTAttr) AttrDegree(attr string) int {
	n := 0
	for _, p := range g.pvtsOf[attr] {
		if !g.removed[p] {
			n++
		}
	}
	return n
}

func (g *refPVTAttr) HighestDegreeAttrs() []string {
	best := 0
	for attr := range g.pvtsOf {
		if d := g.AttrDegree(attr); d > best {
			best = d
		}
	}
	if best == 0 {
		return nil
	}
	var out []string
	for attr := range g.pvtsOf {
		if g.AttrDegree(attr) == best {
			out = append(out, attr)
		}
	}
	sort.Strings(out)
	return out
}

func (g *refPVTAttr) PVTsOfAttrs(attrs []string) []int {
	seen := make(map[int]bool)
	for _, a := range attrs {
		for _, p := range g.pvtsOf[a] {
			if !g.removed[p] {
				seen[p] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func (g *refPVTAttr) Dependency(pvts []int) *refDependency {
	d := &refDependency{adj: make(map[int]map[int]bool, len(pvts))}
	inSet := make(map[int]bool, len(pvts))
	for _, p := range pvts {
		inSet[p] = true
		d.adj[p] = make(map[int]bool)
	}
	for _, members := range g.pvtsOf {
		var present []int
		seen := make(map[int]bool, len(members))
		for _, p := range members {
			if inSet[p] && !seen[p] {
				seen[p] = true
				present = append(present, p)
			}
		}
		for i := 0; i < len(present); i++ {
			for j := i + 1; j < len(present); j++ {
				d.adj[present[i]][present[j]] = true
				d.adj[present[j]][present[i]] = true
			}
		}
	}
	d.nodes = append([]int(nil), pvts...)
	sort.Ints(d.nodes)
	return d
}

type refDependency struct {
	nodes []int
	adj   map[int]map[int]bool
}

func (d *refDependency) CutSize(a, b []int) int {
	inA := make(map[int]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	cut := 0
	for _, y := range b {
		for nbr := range d.adj[y] {
			if inA[nbr] {
				cut++
			}
		}
	}
	return cut
}

// MinBisection is the reference local search; it also returns the number
// of pair scans it made, so a test can tell the budget was exhausted.
func (d *refDependency) MinBisection(rng *rand.Rand) (a, b []int, scans int) {
	a, b = RandomBisection(d.nodes, rng)
	if len(a) == 0 || len(b) == 0 {
		return a, b, 0
	}
	side := make(map[int]int, len(d.nodes))
	for _, x := range a {
		side[x] = 0
	}
	for _, y := range b {
		side[y] = 1
	}
	gain := func(x int) int {
		g := 0
		for nbr := range d.adj[x] {
			if side[nbr] == side[x] {
				g--
			} else {
				g++
			}
		}
		return g
	}
	improved := true
	for improved && scans < maxSwapScans {
		improved = false
	pairs:
		for i := range a {
			gi := gain(a[i])
			for j := range b {
				scans++
				if scans >= maxSwapScans {
					break pairs
				}
				delta := gi + gain(b[j])
				if d.adj[a[i]][b[j]] {
					delta -= 2
				}
				if delta > 0 {
					a[i], b[j] = b[j], a[i]
					side[a[i]] = 0
					side[b[j]] = 1
					improved = true
					break pairs
				}
			}
		}
	}
	sort.Ints(a)
	sort.Ints(b)
	return a, b, scans
}

// Graph shapes for the equivalence checks.
const (
	shapeNoEdges  = iota // one attribute per PVT, like Figure 8b
	shapeCliques8        // eight PVTs per attribute, like Figure 8a
	shapeMulti           // one to three distinct attributes from a small pool
	numShapes
)

// shapedAttrs generates n PVTs' attribute lists of the given shape, with
// no attribute repeated within a PVT.
func shapedAttrs(shape, n int, rng *rand.Rand) [][]string {
	attrs := make([][]string, n)
	switch shape {
	case shapeNoEdges:
		for i := range attrs {
			attrs[i] = []string{fmt.Sprintf("a%d", i)}
		}
	case shapeCliques8:
		k := max(1, n/8)
		for i := range attrs {
			attrs[i] = []string{fmt.Sprintf("a%d", i%k)}
		}
	default:
		pool := 2 + n/4 + rng.Intn(n/4+1)
		for i := range attrs {
			for _, a := range rng.Perm(pool)[:1+rng.Intn(min(3, pool))] {
				attrs[i] = append(attrs[i], fmt.Sprintf("a%d", a))
			}
		}
	}
	return attrs
}

// edgeSet lists a dependency graph's directed edges as sorted PVT pairs.
func edgeSet(d *dependency) [][2]int {
	var out [][2]int
	for i, p := range d.nodes {
		for _, j := range d.neighbours(int32(i)) {
			out = append(out, [2]int{p, d.nodes[j]})
		}
	}
	sortPairs(out)
	return out
}

func refEdgeSet(d *refDependency) [][2]int {
	var out [][2]int
	for p, nbrs := range d.adj {
		for q := range nbrs {
			out = append(out, [2]int{p, q})
		}
	}
	sortPairs(out)
	return out
}

func sortPairs(ps [][2]int) {
	slices.SortFunc(ps, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
}

// randomSubset draws a random subset of 0..n-1 in random order.
func randomSubset(n int, rng *rand.Rand) []int {
	perm := rng.Perm(n)
	return perm[:rng.Intn(n+1)]
}

// checkMatchesReference builds the dense and the reference graph over the
// same attribute lists and removes every PVT twice, in random order. It
// asserts equal candidate sets after every removal, and equal degrees,
// active sets, dependency edges and bisections at about every eighth of
// the removals.
func checkMatchesReference(t *testing.T, attrs [][]string, rng *rand.Rand) {
	t.Helper()
	g, ref := newGraph(attrs), newRefPVTAttr(attrs)
	n := len(attrs)
	names := []string{"unknown"}
	for a := range ref.pvtsOf {
		names = append(names, a)
	}
	sort.Strings(names)

	compareCandidates := func(step string) {
		t.Helper()
		if got, want := g.HighestDegreePVTs(), ref.PVTsOfAttrs(ref.HighestDegreeAttrs()); !slices.Equal(got, want) {
			t.Fatalf("%s: HighestDegreePVTs = %v, reference %v", step, got, want)
		}
	}
	compare := func(step string) {
		t.Helper()
		for _, a := range names {
			if got, want := g.AttrDegree(a), ref.AttrDegree(a); got != want {
				t.Fatalf("%s: AttrDegree(%q) = %d, reference %d", step, a, got, want)
			}
		}
		compareCandidates(step)
		if got, want := g.Active(), ref.Active(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Active = %v, reference %v", step, got, want)
		}
		sub := randomSubset(n, rng)
		d, rd := g.dependency(sub), ref.Dependency(sub)
		if !slices.Equal(d.nodes, rd.nodes) {
			t.Fatalf("%s: nodes = %v, reference %v", step, d.nodes, rd.nodes)
		}
		if got, want := edgeSet(d), refEdgeSet(rd); !slices.Equal(got, want) {
			t.Fatalf("%s: dependency edges over %v = %v, reference %v", step, sub, got, want)
		}
		seed := rng.Int63()
		a, b := d.minBisection(rand.New(rand.NewSource(seed)))
		ra, rb, _ := rd.MinBisection(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(a, ra) || !reflect.DeepEqual(b, rb) {
			t.Fatalf("%s: minBisection = %v | %v, reference %v | %v", step, a, b, ra, rb)
		}
		if got, want := d.cutSize(a, b), rd.CutSize(ra, rb); got != want {
			t.Fatalf("%s: cutSize = %d, reference %d", step, got, want)
		}
	}

	compare("initial")
	var order []int
	for _, p := range rng.Perm(n) {
		order = append(order, p, p)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	checkEvery := max(1, len(order)/8)
	for k, p := range order {
		g.Remove(p)
		ref.Remove(p)
		step := fmt.Sprintf("after %d removals", k+1)
		if k%checkEvery == 0 || k == len(order)-1 {
			compare(step)
		} else {
			compareCandidates(step)
		}
	}
}

func TestGraphMatchesReference(t *testing.T) {
	for shape := 0; shape < numShapes; shape++ {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(120)
			t.Run(fmt.Sprintf("shape=%d/seed=%d/n=%d", shape, seed, n), func(t *testing.T) {
				checkMatchesReference(t, shapedAttrs(shape, n, rng), rng)
			})
		}
	}
}

// TestMinBisectionMatchesReferenceAtScanBudget covers graphs large enough
// that the local search stops on maxSwapScans rather than at a local
// optimum: the partitions must still agree exactly. Besides the three
// shapes it builds two graphs around the start bisection that seed 7
// draws, on which every row of a is pruned until the budget runs out:
// same-side pairs, where every gain is negative, and the same pairs plus
// two cut edges in a's last two rows, where a search that did not charge
// the pruned rows would reach those rows and swap.
func TestMinBisectionMatchesReferenceAtScanBudget(t *testing.T) {
	const n, seed = 1200, 7
	type budgetCase struct {
		name   string
		attrs  [][]string
		noSwap bool // every row is pruned until the budget runs out
	}
	var cases []budgetCase
	for shape := 0; shape < numShapes; shape++ {
		attrs := shapedAttrs(shape, n, rand.New(rand.NewSource(int64(shape))))
		cases = append(cases, budgetCase{fmt.Sprintf("shape %d", shape), attrs, shape == shapeNoEdges})
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	half := (n + 1) / 2
	a, b := slices.Clone(perm[:half]), slices.Clone(perm[half:])
	slices.Sort(a)
	slices.Sort(b)
	pairs := make([][]string, n)
	for s, side := range [][]int{a, b} {
		for i, p := range side {
			pairs[p] = []string{fmt.Sprintf("s%d-%d", s, i/2)}
		}
	}
	crossed := slices.Clone(pairs)
	for k := 1; k <= 2; k++ {
		x, y := a[len(a)-k], b[len(b)-k]
		crossed[x] = []string{fmt.Sprintf("cut%d", k)}
		crossed[y] = crossed[x]
	}
	cases = append(cases,
		budgetCase{"same-side pairs", pairs, true},
		budgetCase{"same-side pairs, two cut edges last", crossed, true})

	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	for _, c := range cases {
		ga, gb := newGraph(c.attrs).Bisect(nodes, rand.New(rand.NewSource(seed)))
		ra, rb, scans := newRefPVTAttr(c.attrs).Dependency(nodes).MinBisection(rand.New(rand.NewSource(seed)))
		if scans != maxSwapScans {
			t.Fatalf("%s: reference made %d scans, want the budget %d", c.name, scans, maxSwapScans)
		}
		if !reflect.DeepEqual(ga, ra) || !reflect.DeepEqual(gb, rb) {
			t.Fatalf("%s: Bisect differs from the reference at the scan budget", c.name)
		}
		if c.noSwap && !(slices.Equal(ga, a) && slices.Equal(gb, b)) {
			t.Fatalf("%s: the search swapped, want the budget spent before any improving row", c.name)
		}
	}
}

// FuzzGraphMatchesReference drives checkMatchesReference with fuzzed
// shapes, sizes and seeds.
func FuzzGraphMatchesReference(f *testing.F) {
	for shape := 0; shape < numShapes; shape++ {
		f.Add(int64(shape), uint8(shape), uint16(17*shape+3))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		checkMatchesReference(t, shapedAttrs(int(shape)%numShapes, 1+int(n)%200, rng), rng)
	})
}
