// Package graph implements the graph machinery behind DataPrism's
// intervention ordering: the PVT-attribute bipartite graph used to
// prioritize interventions (Observation O1, Section 4.2), the PVT-dependency
// graph derived from it, and the anytime local-search minimum-bisection
// algorithm (Appendix A, Algorithm 4) that DataPrismGT uses to partition
// candidate PVTs for group testing.
//
// Both graphs are stored densely: attribute names are interned once into
// int32 ids through an open-addressing table, adjacency lives in CSR
// (compressed sparse row) arrays, and per-call dedup uses
// generation-stamped scratch instead of maps.
package graph

import (
	"hash/maphash"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// PVTAttr is the bipartite PVT-attribute graph: PVTs (identified by dense
// indices) on one side, attribute names on the other. A PVT is connected to
// every distinct attribute its profile is defined over. PVTs can be removed
// as the greedy algorithm explores them (Algorithm 1, line 13).
//
// Queries reuse scratch buffers held by the graph, so a PVTAttr is not safe
// for concurrent use.
type PVTAttr struct {
	attrs interner // attribute name <-> id

	// CSR pvt -> distinct attribute ids: pvtAttrs[pvtStart[p]:pvtStart[p+1]].
	pvtStart []int32
	pvtAttrs []int32
	// CSR attribute id -> member PVTs, ascending: attrPVTs[attrStart[a]:attrStart[a+1]].
	attrStart []int32
	attrPVTs  []int32

	degree  []int32 // attribute id -> number of active member PVTs
	removed []bool  // pvt -> explored flag

	stamp []uint32 // pvt -> generation that last marked it (see mark)
	gen   uint32
	local []int32 // pvt -> rank in the subset dependency is building, else -1

	ws dependency // Bisect's workspace, reused by every call
}

// NewPVTAttr builds the bipartite graph over n PVTs, where attrsOf(p)
// lists PVT p's attributes; an attribute listed twice by one PVT connects
// them once. attrsOf is called once per PVT, in order, and the graph keeps
// none of the slices it returns.
func NewPVTAttr(n int, attrsOf func(p int) []string) *PVTAttr {
	// Sized for one attribute per PVT, the common case.
	g := &PVTAttr{
		attrs:    newInterner(n),
		pvtStart: make([]int32, n+1),
		pvtAttrs: make([]int32, 0, n),
		removed:  make([]bool, n),
	}
	last := make([]int32, 0, n) // attribute id -> last PVT that listed it
	for p := 0; p < n; p++ {
		for _, name := range attrsOf(p) {
			id, added := g.attrs.intern(name)
			if added {
				last = append(last, -1)
			}
			if last[id] == int32(p) {
				continue
			}
			last[id] = int32(p)
			g.pvtAttrs = append(g.pvtAttrs, id)
		}
		g.pvtStart[p+1] = int32(len(g.pvtAttrs))
	}

	numAttrs := len(g.attrs.names)
	g.degree = make([]int32, numAttrs)
	for _, id := range g.pvtAttrs {
		g.degree[id]++
	}
	g.attrStart = make([]int32, numAttrs+1)
	for id, d := range g.degree {
		g.attrStart[id+1] = g.attrStart[id] + d
	}
	g.attrPVTs = make([]int32, len(g.pvtAttrs))
	// The dedupe scratch holds one entry per attribute id; it becomes each
	// attribute's fill cursor.
	fill := last
	copy(fill, g.attrStart[:numAttrs])
	for p := 0; p < n; p++ {
		for _, id := range g.attrIDs(p) {
			g.attrPVTs[fill[id]] = int32(p)
			fill[id]++
		}
	}
	return g
}

// interner assigns attribute names dense int32 ids in first-appearance
// order without a Go map: slots is a power-of-two open-addressing table
// holding id+1 (0 marks an empty slot), probed linearly from the name's
// maphash and compared against names[id]. Growth keeps the table at most
// half full, so every probe sequence reaches an empty slot. The hash seed
// only places names in slots; ids, and so every output of the graph, do
// not depend on it.
type interner struct {
	seed  maphash.Seed
	slots []int32
	names []string // id -> name
}

// newInterner sizes the table for hint distinct names without growing.
func newInterner(hint int) interner {
	size := 1 << bits.Len(uint(2*max(hint, 4)-1))
	return interner{seed: maphash.MakeSeed(), slots: make([]int32, size), names: make([]string, 0, hint)}
}

// find returns the slot holding name, or the empty slot ending its probe
// sequence.
func (t *interner) find(name string) int {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(t.seed, name) & mask
	for t.slots[i] != 0 && t.names[t.slots[i]-1] != name {
		i = (i + 1) & mask
	}
	return int(i)
}

// lookup returns name's id, or -1 when it was never interned.
func (t *interner) lookup(name string) int32 { return t.slots[t.find(name)] - 1 }

// intern returns name's id, assigning the next one when name is new.
func (t *interner) intern(name string) (id int32, added bool) {
	i := t.find(name)
	if t.slots[i] != 0 {
		return t.slots[i] - 1, false
	}
	id = int32(len(t.names))
	t.names = append(t.names, name)
	t.slots[i] = id + 1
	if 2*len(t.names) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		for j, n := range t.names {
			t.slots[t.find(n)] = int32(j + 1)
		}
	}
	return id, true
}

// attrIDs returns the distinct attribute ids of a PVT (in range).
func (g *PVTAttr) attrIDs(p int) []int32 { return g.pvtAttrs[g.pvtStart[p]:g.pvtStart[p+1]] }

// members returns the PVTs connected to an attribute id, ascending.
func (g *PVTAttr) members(id int32) []int32 { return g.attrPVTs[g.attrStart[id]:g.attrStart[id+1]] }

// mark starts a new generation of g.stamp: a PVT p is marked in it iff
// g.stamp[p] equals the returned value.
func (g *PVTAttr) mark() uint32 {
	if g.stamp == nil {
		g.stamp = make([]uint32, len(g.removed))
	}
	g.gen++
	if g.gen == 0 { // wrapped: stale stamps could collide
		clear(g.stamp)
		g.gen = 1
	}
	return g.gen
}

// Remove marks a PVT as explored so it no longer contributes to degrees.
// Removing a PVT twice, or one out of range, does nothing.
func (g *PVTAttr) Remove(pvt int) {
	if pvt < 0 || pvt >= len(g.removed) || g.removed[pvt] {
		return
	}
	g.removed[pvt] = true
	for _, id := range g.attrIDs(pvt) {
		g.degree[id]--
	}
}

// Active returns the indices of the PVTs not yet removed, ascending.
func (g *PVTAttr) Active() []int {
	var out []int
	for i, r := range g.removed {
		if !r {
			out = append(out, i)
		}
	}
	return out
}

// AttrDegree returns the number of active PVTs connected to attr.
func (g *PVTAttr) AttrDegree(attr string) int {
	id := g.attrs.lookup(attr)
	if id < 0 {
		return 0
	}
	return int(g.degree[id])
}

// HighestDegreePVTs returns, ascending, the active PVTs adjacent to at
// least one attribute of maximal active degree — the Xhda set of
// Algorithm 1, line 10. It returns nil when no attribute has an active PVT.
func (g *PVTAttr) HighestDegreePVTs() []int {
	var best int32
	for _, d := range g.degree {
		best = max(best, d)
	}
	if best == 0 {
		return nil
	}
	// A PVT qualifies when one of its own attributes has the best degree,
	// so a walk over the PVTs in index order yields the set ascending and
	// without duplicates: one pass sizes it, the second fills it.
	isCandidate := func(p int) bool {
		if g.removed[p] {
			return false
		}
		for _, id := range g.attrIDs(p) {
			if g.degree[id] == best {
				return true
			}
		}
		return false
	}
	k := 0
	for p := range g.removed {
		if isCandidate(p) {
			k++
		}
	}
	out := make([]int, k)
	k = 0
	for p := range g.removed {
		if isCandidate(p) {
			out[k] = p
			k++
		}
	}
	return out
}

// Bisect min-bisects the PVT-dependency graph G_PD over the distinct PVT
// indices x (Section 4.4): two PVTs are adjacent iff they share an
// attribute, and the local-search swap algorithm of Appendix A
// (Algorithm 4) splits x into halves of ⌈|x|/2⌉ and ⌊|x|/2⌋ PVTs with few
// crossing edges. Starting from the bisection RandomBisection would draw
// from x sorted, it repeatedly swaps a pair across the halves whenever the
// swap reduces the cut, until no improving swap exists or the scan budget
// is spent. The halves are fresh and ascending.
//
// The subgraph and the search live in a workspace the graph keeps, so once
// it has grown to the largest x seen a call allocates only the two halves.
// x is read during the call only.
func (g *PVTAttr) Bisect(x []int, rng *rand.Rand) (a, b []int) {
	return g.dependency(x).minBisection(rng)
}

// dependency is the PVT-dependency graph over a subset, addressed by each
// node's rank in the ascending node list with CSR adjacency over ranks,
// plus the scratch of its min-bisection. PVTAttr.ws holds the only one.
type dependency struct {
	nodes  []int   // PVT indices, ascending: the caller's subset or sorted
	sorted []int   // copy of an unsorted subset
	start  []int32 // rank -> offset into adj; len(nodes)+1 entries
	adj    []int32 // neighbour ranks

	perm   []int32 // the random start's draw
	side   []int8  // rank -> 0 (a) or 1 (b)
	ra, rb []int32 // ranks on each side, in swap-scan order
	gain   []int32 // rank -> cut reduction of moving it alone
	nbrOf  []int32 // rank -> stamp of the last row it neighboured
}

// resize returns s with n elements, reallocating only when its capacity
// is short; the elements' values are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dependency builds G_PD over the distinct PVT indices pvts into the
// workspace and returns it; the next call overwrites it. It touches only
// the subset's PVTs and the members of their attributes. An ascending
// pvts becomes the node list itself; any other order is sorted into
// scratch.
func (g *PVTAttr) dependency(pvts []int) *dependency {
	d := &g.ws
	n := len(pvts)
	if slices.IsSorted(pvts) {
		d.nodes = pvts
	} else {
		d.sorted = append(d.sorted[:0], pvts...)
		slices.Sort(d.sorted)
		d.nodes = d.sorted
	}
	d.start = resize(d.start, n+1)
	d.start[0] = 0
	d.adj = d.adj[:0]
	if g.local == nil {
		g.local = make([]int32, len(g.removed))
		for i := range g.local {
			g.local[i] = -1
		}
	}
	inGraph := func(p int) bool { return p >= 0 && p < len(g.local) }
	for i, p := range d.nodes {
		if inGraph(p) {
			g.local[p] = int32(i)
		}
	}
	for i, p := range d.nodes {
		if inGraph(p) {
			// One generation per node drops neighbours reached through
			// several shared attributes, and the node itself (no
			// self-loops: they would corrupt the bisection gains).
			gen := g.mark()
			g.stamp[p] = gen
			for _, id := range g.attrIDs(p) {
				for _, q := range g.members(id) {
					if j := g.local[q]; j >= 0 && g.stamp[q] != gen {
						g.stamp[q] = gen
						d.adj = append(d.adj, j)
					}
				}
			}
		}
		d.start[i+1] = int32(len(d.adj))
	}
	for _, p := range d.nodes {
		if inGraph(p) {
			g.local[p] = -1
		}
	}
	return d
}

// neighbours returns the ranks adjacent to rank i.
func (d *dependency) neighbours(i int32) []int32 { return d.adj[d.start[i]:d.start[i+1]] }

// RandomBisection splits nodes into two halves uniformly at random
// (sizes differ by at most one) — the partitioning of the traditional
// adaptive group-testing baseline.
func RandomBisection(nodes []int, rng *rand.Rand) (a, b []int) {
	perm := rng.Perm(len(nodes))
	half := (len(nodes) + 1) / 2
	a = make([]int, 0, half)
	b = make([]int, 0, len(nodes)-half)
	for i, pi := range perm {
		if i < half {
			a = append(a, nodes[pi])
		} else {
			b = append(b, nodes[pi])
		}
	}
	sort.Ints(a)
	sort.Ints(b)
	return a, b
}

// drawPerm fills perm with rng.Perm(len(perm)), making exactly its draws.
func drawPerm(perm []int32, rng *rand.Rand) {
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = int32(i)
	}
}

// maxSwapScans bounds the pair scans of one bisection, across all of its
// improvement passes, so Bisect stays anytime on very large PVT sets
// (Appendix A notes the local search is an anytime algorithm).
const maxSwapScans = 1 << 18

// minBisection runs Algorithm 4 on the graph's nodes (see Bisect).
func (d *dependency) minBisection(rng *rand.Rand) (a, b []int) {
	n := len(d.nodes)
	// The same draw as RandomBisection(d.nodes, rng): the nodes are sorted,
	// so sorting the drawn ranks sorts the drawn PVTs.
	d.perm = resize(d.perm, n)
	drawPerm(d.perm, rng)
	half := (n + 1) / 2
	d.side = resize(d.side, n)
	side := d.side
	clear(side)
	for _, r := range d.perm[half:] {
		side[r] = 1
	}
	if half == 0 || half == n {
		return d.pvtsOf(0, half), d.pvtsOf(1, n-half)
	}
	ra, rb := resize(d.ra, half)[:0], resize(d.rb, n-half)[:0]
	for r, s := range side {
		if s == 0 {
			ra = append(ra, int32(r))
		} else {
			rb = append(rb, int32(r))
		}
	}
	d.ra, d.rb = ra, rb
	// gain[x] = ext[x] − int[x]: the cut reduction of moving x alone to the
	// other side, kept exact across swaps.
	d.gain = resize(d.gain, n)
	gain := d.gain
	for x := range gain {
		g := int32(0)
		for _, nbr := range d.neighbours(int32(x)) {
			if side[nbr] == side[x] {
				g--
			} else {
				g++
			}
		}
		gain[x] = g
	}
	move := func(x int32) {
		for _, nbr := range d.neighbours(x) {
			if side[nbr] == side[x] {
				gain[nbr] += 2 // internal edge becomes cut
			} else {
				gain[nbr] -= 2 // cut edge becomes internal
			}
		}
		gain[x] = -gain[x]
		side[x] ^= 1
	}
	// nbrOf[y] == stamp iff y neighbours the current ra[i]. Every stamp
	// is followed by at least one scan, so stamps stay below
	// maxSwapScans plus the number of passes.
	d.nbrOf = resize(d.nbrOf, n)
	nbrOf := d.nbrOf
	clear(nbrOf)
	var stamp int32
	scans := 0
	improved := true
	for improved && scans < maxSwapScans {
		improved = false
		// The largest gain in b. Gains change only in the swap that ends
		// a pass, so it holds for the whole pass.
		top := gain[rb[0]]
		for _, y := range rb {
			top = max(top, gain[y])
		}
	pairs:
		for i := range ra {
			x := ra[i]
			gi := gain[x]
			if gi+top <= 0 {
				// No swap out of this row cuts fewer edges: its delta is
				// at most gi + gain[y] ≤ gi + top. Skip the row but
				// charge its scans, so the budget runs out where a full
				// scan would have spent it.
				if scans += len(rb); scans >= maxSwapScans {
					break pairs
				}
				continue
			}
			stamp++
			for _, nbr := range d.neighbours(x) {
				nbrOf[nbr] = stamp
			}
			for j := range rb {
				scans++
				if scans >= maxSwapScans {
					break pairs
				}
				y := rb[j]
				delta := gi + gain[y]
				if nbrOf[y] == stamp {
					delta -= 2 // the pair's own edge stays cut after the swap
				}
				if delta > 0 {
					move(x)
					move(y)
					ra[i], rb[j] = y, x
					improved = true
					break pairs
				}
			}
		}
	}
	return d.pvtsOf(0, half), d.pvtsOf(1, n-half)
}

// pvtsOf returns the size PVTs whose rank is on side s, ascending.
func (d *dependency) pvtsOf(s int8, size int) []int {
	out := make([]int, 0, size)
	for r, v := range d.side {
		if v == s {
			out = append(out, d.nodes[r])
		}
	}
	return out
}
