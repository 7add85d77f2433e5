package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// rank returns the position of PVT p in the node list, or -1.
func (d *dependency) rank(p int) int32 {
	if i, ok := slices.BinarySearch(d.nodes, p); ok {
		return int32(i)
	}
	return -1
}

// hasEdge reports whether two PVTs share an attribute.
func (d *dependency) hasEdge(a, b int) bool {
	i, j := d.rank(a), d.rank(b)
	return i >= 0 && j >= 0 && slices.Contains(d.neighbours(i), j)
}

// numEdges returns the undirected edge count.
func (d *dependency) numEdges() int { return len(d.adj) / 2 }

// cutSize counts edges crossing between the two partitions.
func (d *dependency) cutSize(a, b []int) int {
	inA := make([]bool, len(d.nodes))
	for _, x := range a {
		if i := d.rank(x); i >= 0 {
			inA[i] = true
		}
	}
	cut := 0
	for _, y := range b {
		if j := d.rank(y); j >= 0 {
			for _, nbr := range d.neighbours(j) {
				if inA[nbr] {
					cut++
				}
			}
		}
	}
	return cut
}

// newGraph builds a PVTAttr over attribute lists held in a slice.
func newGraph(attrs [][]string) *PVTAttr {
	return NewPVTAttr(len(attrs), func(p int) []string { return attrs[p] })
}

// examplePVTs mirrors Figure 4 of the paper: four discriminative PVTs over
// the attributes of the running example.
func examplePVTs() [][]string {
	return [][]string{
		{"age"},                        // ⟨Domain, age⟩
		{"zip"},                        // ⟨Missing, zip⟩
		{"race", "high_expenditure"},   // ⟨Indep, race, high⟩
		{"gender", "high_expenditure"}, // ⟨Selectivity, gender ∧ high⟩
	}
}

func TestPVTAttrDegrees(t *testing.T) {
	g := newGraph(examplePVTs())
	if len(g.removed) != 4 {
		t.Fatalf("%d PVTs, want 4", len(g.removed))
	}
	if d := g.AttrDegree("high_expenditure"); d != 2 {
		t.Errorf("degree(high_expenditure) = %d, want 2", d)
	}
	if d := g.AttrDegree("age"); d != 1 {
		t.Errorf("degree(age) = %d, want 1", d)
	}
	if d := g.AttrDegree("unknown"); d != 0 {
		t.Errorf("degree(unknown) = %d, want 0", d)
	}
	// high_expenditure is the unique highest-degree attribute (Figure 4);
	// its adjacent PVTs are Indep (2) and Selectivity (3).
	if pvts := g.HighestDegreePVTs(); !reflect.DeepEqual(pvts, []int{2, 3}) {
		t.Errorf("HighestDegreePVTs = %v, want [2 3]", pvts)
	}
}

func TestPVTAttrRemove(t *testing.T) {
	g := newGraph(examplePVTs())
	g.Remove(2)
	if !g.removed[2] || g.removed[0] {
		t.Error("Removed flags wrong")
	}
	if d := g.AttrDegree("high_expenditure"); d != 1 {
		t.Errorf("degree after removal = %d, want 1", d)
	}
	active := g.Active()
	if len(active) != 3 {
		t.Errorf("Active = %v", active)
	}
	// With PVT 2 explored every attribute has degree 1, so every active
	// PVT is a candidate.
	if pvts := g.HighestDegreePVTs(); !reflect.DeepEqual(pvts, []int{0, 1, 3}) {
		t.Errorf("HighestDegreePVTs after removal = %v, want [0 1 3]", pvts)
	}
	// Removing everything leaves no candidates.
	for i := 0; i < 4; i++ {
		g.Remove(i)
	}
	if got := g.HighestDegreePVTs(); got != nil {
		t.Errorf("HighestDegreePVTs on empty graph = %v", got)
	}
}

// TestAttrDegreeCountsDistinctPVTs: a PVT listing an attribute twice
// counts once toward its degree, so it cannot tie a genuinely shared
// attribute and join the Algorithm 1 line-10 candidates.
func TestAttrDegreeCountsDistinctPVTs(t *testing.T) {
	g := newGraph([][]string{{"a", "a"}, {"b"}, {"b"}})
	if d := g.AttrDegree("a"); d != 1 {
		t.Errorf("degree(a) = %d, want 1", d)
	}
	if pvts := g.HighestDegreePVTs(); !reflect.DeepEqual(pvts, []int{1, 2}) {
		t.Errorf("HighestDegreePVTs = %v, want [1 2] (the PVTs of b)", pvts)
	}
	g.Remove(0)
	g.Remove(0)
	if d := g.AttrDegree("a"); d != 0 {
		t.Errorf("degree(a) after removing its PVT twice = %d, want 0", d)
	}
}

// TestInterningManyNames pushes the interning table through a growth: 100k
// distinct names (four per PVT, so the table sized for the PVT count must
// grow), then every tenth name listed again, twice, by a PVT of its own.
// Ids stay in first-appearance order, every degree is exact, and names
// never interned have degree 0.
func TestInterningManyNames(t *testing.T) {
	const distinct, perPVT, repeats = 100_000, 4, 10_000
	name := func(k int) string { return "attr" + strconv.Itoa(k) }
	var attrs [][]string
	for p := 0; p < distinct/perPVT; p++ {
		row := make([]string, perPVT)
		for j := range row {
			row[j] = name(perPVT*p + j)
		}
		attrs = append(attrs, row)
	}
	for r := 0; r < repeats; r++ {
		attrs = append(attrs, []string{name(10 * r), name(10 * r)})
	}
	g := newGraph(attrs)
	if len(g.attrs.names) != distinct || 2*distinct > len(g.attrs.slots) {
		t.Fatalf("%d names in %d slots, want %d names at most half full", len(g.attrs.names), len(g.attrs.slots), distinct)
	}
	if initial := len(newInterner(len(attrs)).slots); len(g.attrs.slots) <= initial {
		t.Fatalf("the table kept its initial %d slots: the case never grew it", initial)
	}
	for k := 0; k < distinct; k++ {
		if g.attrs.names[k] != name(k) {
			t.Fatalf("id %d is %q, want %q (first-appearance order)", k, g.attrs.names[k], name(k))
		}
		want := 1
		if k%10 == 0 {
			want = 2
		}
		if d := g.AttrDegree(name(k)); d != want {
			t.Fatalf("AttrDegree(%q) = %d, want %d", name(k), d, want)
		}
	}
	for _, unknown := range []string{"", "attr", "Attr0", "attr-1", name(distinct), "unknown"} {
		if d := g.AttrDegree(unknown); d != 0 {
			t.Errorf("AttrDegree(%q) = %d, want 0", unknown, d)
		}
	}
	// Candidates: the PVTs holding a name whose index is a multiple of ten.
	var want []int
	for p, row := range attrs {
		for _, a := range row {
			if k, _ := strconv.Atoi(a[len("attr"):]); k%10 == 0 {
				want = append(want, p)
				break
			}
		}
	}
	if got := g.HighestDegreePVTs(); !reflect.DeepEqual(got, want) {
		t.Errorf("HighestDegreePVTs: %d PVTs, want %d", len(got), len(want))
	}
	for r := 0; r < repeats; r++ {
		g.Remove(distinct/perPVT + r)
	}
	if d := g.AttrDegree(name(0)); d != 1 {
		t.Errorf("AttrDegree(%q) after removing its repeat = %d, want 1", name(0), d)
	}
	if got := g.HighestDegreePVTs(); len(got) != distinct/perPVT {
		t.Errorf("HighestDegreePVTs after removing the repeats: %d PVTs, want all %d left", len(got), distinct/perPVT)
	}
}

func TestDependencyGraph(t *testing.T) {
	g := newGraph(examplePVTs())
	d := g.dependency([]int{0, 1, 2, 3})
	// Only PVTs 2 and 3 share an attribute.
	if !d.hasEdge(2, 3) || !d.hasEdge(3, 2) {
		t.Error("PVTs sharing high_expenditure should be adjacent")
	}
	if d.hasEdge(0, 1) || d.hasEdge(0, 2) {
		t.Error("unrelated PVTs should not be adjacent")
	}
	if d.numEdges() != 1 {
		t.Errorf("numEdges = %d, want 1", d.numEdges())
	}
	// Restricting the subset drops edges.
	d2 := g.dependency([]int{0, 2})
	if d2.numEdges() != 0 {
		t.Error("restricted dependency graph should have no edges")
	}
}

func TestCutSize(t *testing.T) {
	g := newGraph(examplePVTs())
	d := g.dependency([]int{0, 1, 2, 3})
	if cut := d.cutSize([]int{2}, []int{3}); cut != 1 {
		t.Errorf("cutSize = %d, want 1", cut)
	}
	if cut := d.cutSize([]int{2, 3}, []int{0, 1}); cut != 0 {
		t.Errorf("cutSize same-side = %d, want 0", cut)
	}
}

func TestRandomBisectionSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 8, 9} {
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		a, b := RandomBisection(nodes, rng)
		if len(a)+len(b) != n {
			t.Fatalf("n=%d: lost nodes", n)
		}
		if diff := len(a) - len(b); diff < 0 || diff > 1 {
			t.Errorf("n=%d: unbalanced %d/%d", n, len(a), len(b))
		}
	}
}

// figure6Graph reproduces the dependency graph of Figure 6(a): components
// {X1,X2}, {X3,X4}, {X5,X7}, {X6,X8} (0-indexed here).
func figure6Graph() *dependency {
	attrs := [][]string{
		{"a1"}, {"a1"}, // X1-X2 share a1
		{"a2"}, {"a2"}, // X3-X4 share a2
		{"a3"}, {"a4"}, // X5, X6
		{"a3"}, {"a4"}, // X7 (with X5), X8 (with X6)
	}
	return newGraph(attrs).dependency([]int{0, 1, 2, 3, 4, 5, 6, 7})
}

func TestMinBisectionKeepsComponentsTogether(t *testing.T) {
	d := figure6Graph()
	rng := rand.New(rand.NewSource(3))
	a, b := d.minBisection(rng)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("unbalanced bisection %d/%d", len(a), len(b))
	}
	// The graph is a perfect matching of 4 pairs; an optimal bisection has
	// cut 0, keeping each pair on one side.
	if cut := d.cutSize(a, b); cut != 0 {
		t.Errorf("minBisection cut = %d, want 0 (pairs kept together: %v | %v)", cut, a, b)
	}
}

func TestMinBisectionDegenerate(t *testing.T) {
	d := newGraph([][]string{{"a"}}).dependency([]int{0})
	rng := rand.New(rand.NewSource(1))
	a, b := d.minBisection(rng)
	if len(a)+len(b) != 1 {
		t.Error("single node bisection lost the node")
	}
}

// Property: minBisection never produces a worse cut than the random
// bisection it starts from would on average, preserves all nodes, and stays
// balanced.
func TestMinBisectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		attrs := make([][]string, n)
		pool := []string{"a", "b", "c", "d", "e"}
		for i := range attrs {
			k := 1 + rng.Intn(2)
			for j := 0; j < k; j++ {
				attrs[i] = append(attrs[i], pool[rng.Intn(len(pool))])
			}
		}
		g := newGraph(attrs)
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		d := g.dependency(nodes)
		a, b := d.minBisection(rng)
		if len(a)+len(b) != n {
			return false
		}
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		if diff > 1 {
			return false
		}
		all := append(append([]int(nil), a...), b...)
		sort.Ints(all)
		for i, x := range all {
			if x != i {
				return false
			}
		}
		// Local optimum: no single swap improves the cut.
		base := d.cutSize(a, b)
		for i := range a {
			for j := range b {
				a2 := append([]int(nil), a...)
				b2 := append([]int(nil), b...)
				a2[i], b2[j] = b[j], a[i]
				if d.cutSize(a2, b2) < base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
