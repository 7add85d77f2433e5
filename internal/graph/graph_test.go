package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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
	g := NewPVTAttr(examplePVTs())
	if g.NumPVTs() != 4 {
		t.Fatalf("NumPVTs = %d", g.NumPVTs())
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
	// high_expenditure is the unique highest-degree attribute (Figure 4).
	hda := g.HighestDegreeAttrs()
	if len(hda) != 1 || hda[0] != "high_expenditure" {
		t.Errorf("HighestDegreeAttrs = %v", hda)
	}
	// Its adjacent PVTs are Indep (2) and Selectivity (3).
	pvts := g.PVTsOfAttrs(hda)
	if len(pvts) != 2 || pvts[0] != 2 || pvts[1] != 3 {
		t.Errorf("PVTsOfAttrs = %v", pvts)
	}
}

func TestPVTAttrRemove(t *testing.T) {
	g := NewPVTAttr(examplePVTs())
	g.Remove(2)
	if !g.Removed(2) || g.Removed(0) {
		t.Error("Removed flags wrong")
	}
	if d := g.AttrDegree("high_expenditure"); d != 1 {
		t.Errorf("degree after removal = %d, want 1", d)
	}
	active := g.Active()
	if len(active) != 3 {
		t.Errorf("Active = %v", active)
	}
	// Removing everything leaves no highest-degree attrs.
	for i := 0; i < 4; i++ {
		g.Remove(i)
	}
	if got := g.HighestDegreeAttrs(); got != nil {
		t.Errorf("HighestDegreeAttrs on empty graph = %v", got)
	}
}

// TestAttrDegreeCountsDistinctPVTs: a PVT listing an attribute twice
// counts once toward its degree, so it cannot tie a genuinely shared
// attribute and join the Algorithm 1 line-10 candidates.
func TestAttrDegreeCountsDistinctPVTs(t *testing.T) {
	g := NewPVTAttr([][]string{{"a", "a"}, {"b"}, {"b"}})
	if d := g.AttrDegree("a"); d != 1 {
		t.Errorf("degree(a) = %d, want 1", d)
	}
	hda := g.HighestDegreeAttrs()
	if len(hda) != 1 || hda[0] != "b" {
		t.Errorf("HighestDegreeAttrs = %v, want [b]", hda)
	}
	if pvts := g.PVTsOfAttrs(hda); len(pvts) != 2 || pvts[0] != 1 || pvts[1] != 2 {
		t.Errorf("PVTsOfAttrs = %v, want [1 2]", pvts)
	}
	g.Remove(0)
	g.Remove(0)
	if d := g.AttrDegree("a"); d != 0 {
		t.Errorf("degree(a) after removing its PVT twice = %d, want 0", d)
	}
}

func TestDependencyGraph(t *testing.T) {
	g := NewPVTAttr(examplePVTs())
	d := g.Dependency([]int{0, 1, 2, 3})
	// Only PVTs 2 and 3 share an attribute.
	if !d.HasEdge(2, 3) || !d.HasEdge(3, 2) {
		t.Error("PVTs sharing high_expenditure should be adjacent")
	}
	if d.HasEdge(0, 1) || d.HasEdge(0, 2) {
		t.Error("unrelated PVTs should not be adjacent")
	}
	if d.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", d.NumEdges())
	}
	// Restricting the subset drops edges.
	d2 := g.Dependency([]int{0, 2})
	if d2.NumEdges() != 0 {
		t.Error("restricted dependency graph should have no edges")
	}
}

func TestCutSize(t *testing.T) {
	g := NewPVTAttr(examplePVTs())
	d := g.Dependency([]int{0, 1, 2, 3})
	if cut := d.CutSize([]int{2}, []int{3}); cut != 1 {
		t.Errorf("CutSize = %d, want 1", cut)
	}
	if cut := d.CutSize([]int{2, 3}, []int{0, 1}); cut != 0 {
		t.Errorf("CutSize same-side = %d, want 0", cut)
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
func figure6Graph() *Dependency {
	attrs := [][]string{
		{"a1"}, {"a1"}, // X1-X2 share a1
		{"a2"}, {"a2"}, // X3-X4 share a2
		{"a3"}, {"a4"}, // X5, X6
		{"a3"}, {"a4"}, // X7 (with X5), X8 (with X6)
	}
	g := NewPVTAttr(attrs)
	return g.Dependency([]int{0, 1, 2, 3, 4, 5, 6, 7})
}

func TestMinBisectionKeepsComponentsTogether(t *testing.T) {
	d := figure6Graph()
	rng := rand.New(rand.NewSource(3))
	a, b := d.MinBisection(rng)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("unbalanced bisection %d/%d", len(a), len(b))
	}
	// The graph is a perfect matching of 4 pairs; an optimal bisection has
	// cut 0, keeping each pair on one side.
	if cut := d.CutSize(a, b); cut != 0 {
		t.Errorf("MinBisection cut = %d, want 0 (pairs kept together: %v | %v)", cut, a, b)
	}
}

func TestMinBisectionDegenerate(t *testing.T) {
	g := NewPVTAttr([][]string{{"a"}})
	d := g.Dependency([]int{0})
	rng := rand.New(rand.NewSource(1))
	a, b := d.MinBisection(rng)
	if len(a)+len(b) != 1 {
		t.Error("single node bisection lost the node")
	}
}

// Property: MinBisection never produces a worse cut than the random
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
		g := NewPVTAttr(attrs)
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		d := g.Dependency(nodes)
		a, b := d.MinBisection(rng)
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
		base := d.CutSize(a, b)
		for i := range a {
			for j := range b {
				a2 := append([]int(nil), a...)
				b2 := append([]int(nil), b...)
				a2[i], b2[j] = b[j], a[i]
				if d.CutSize(a2, b2) < base {
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
