package ml

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DecisionTree is a CART binary classifier: axis-aligned threshold splits
// chosen by Gini impurity. RandomForest trains its trees.
type DecisionTree struct {
	// MaxDepth bounds the tree depth.
	MaxDepth int
	// Features are the features splits may use.
	Features []int

	root *treeNode
}

// minLeaf is the smallest sample count each side of a DecisionTree split
// keeps.
const minLeaf = 2

// maxThresholds caps the candidate split thresholds per feature of a
// DecisionTree node and of an AdaBoost stump; values beyond the cap are
// subsampled by quantile.
const maxThresholds = 32

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	leaf      bool
	class     int
}

// gini returns the Gini impurity of n labels of which ones are class 1.
func gini(ones, n int) float64 {
	p := float64(ones) / float64(n)
	return 2 * p * (1 - p)
}

// majority returns the majority class of n labels of which ones are class 1
// (ties → class 1).
func majority(ones, n int) int {
	if 2*ones >= n {
		return 1
	}
	return 0
}

// trainSet is the training data of one RandomForest.Fit, which the
// goroutines training its trees share read-only: X copied column-major,
// the labels, and each feature's rows sorted once.
type trainSet struct {
	n      int         // rows
	cols   [][]float64 // cols[j][r] is X[r][j]
	y      []int
	sorted [][]int32 // sorted[j]: every row by ascending cols[j], NaNs first
}

// newTrainSet copies X column-major and sorts each feature's rows, on up
// to workers goroutines.
func newTrainSet(X [][]float64, y []int, workers int) *trainSet {
	n, d := len(X), 0
	if n > 0 {
		d = len(X[0])
	}
	s := &trainSet{n: n, cols: make([][]float64, d), y: y, sorted: make([][]int32, d)}
	cells := make([]float64, n*d)
	orders := make([]int32, n*d)
	var next atomic.Int32 // the next feature to claim
	together(min(workers, d), func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= d {
				return
			}
			col := cells[j*n : (j+1)*n : (j+1)*n]
			for r, x := range X {
				col[r] = x[j]
			}
			// The order sort.Float64s gives the values: NaNs first, -0 = +0.
			o := orders[j*n : (j+1)*n : (j+1)*n]
			for r := range o {
				o[r] = int32(r)
			}
			slices.SortFunc(o, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
			s.cols[j], s.sorted[j] = col, o
		}
	})
	return s
}

// together runs fn on k goroutines, the caller's among them, and returns
// once every call has returned. With k <= 1 it starts no goroutine.
func together(k int, fn func()) {
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	fn()
	wg.Wait()
}

// cart is one goroutine's workspace for training trees on a trainSet. A
// tree trains on a multiset of rows: w[r] copies of row r, a bootstrap
// sample's counts. A tree keeps, per feature it may split on, its rows in
// that feature's sorted order, and every split partitions those orders
// stably, so each node owns the same range [lo, hi) of all of them, still
// sorted. A node then scores every candidate threshold of a feature in
// one pass over its range, from running label counts.
type cart struct {
	*trainSet
	w []int32

	// The tree being grown.
	features []int
	maxDepth int
	slot     []int     // slot[j]: the index in order of feature j's rows, or -1
	order    [][]int32 // order[:active]: the tree's rows (w > 0) per split feature
	active   int
	left     []uint8 // left[r]: 1 if row r goes to the left child of the split being made
	spill    []int32 // the right-going rows of one partition

	// One feature's scan of one node: its distinct non-NaN values ascending,
	// and the row copies and class-1 copies below each (plus the total).
	vals        []float64
	below, ones []int32
}

// workspace returns a fresh training workspace over s.
func (s *trainSet) workspace() *cart {
	return &cart{
		trainSet: s,
		w:        make([]int32, s.n),
		slot:     make([]int, len(s.cols)),
		left:     make([]uint8, s.n),
		spill:    make([]int32, s.n),
		vals:     make([]float64, 0, s.n),
		below:    make([]int32, 0, s.n+1),
		ones:     make([]int32, 0, s.n+1),
	}
}

// train grows t on w[r] copies of each row r.
func (c *cart) train(t *DecisionTree) {
	c.features, c.maxDepth = t.Features, t.MaxDepth
	rows, n, ones := 0, 0, 0
	for r, k := range c.w {
		if k > 0 {
			rows++
			n += int(k)
			ones += int(k) * c.y[r]
		}
	}
	for j := range c.slot {
		c.slot[j] = -1
	}
	c.active = 0
	if n >= 2*minLeaf { // a smaller root is a leaf, which reads no order
		for _, j := range t.Features {
			if c.slot[j] >= 0 {
				continue
			}
			if c.active == len(c.order) {
				c.order = append(c.order, make([]int32, 0, len(c.w)))
			}
			o := c.order[c.active][:0]
			for _, r := range c.sorted[j] {
				if c.w[r] > 0 {
					o = append(o, r)
				}
			}
			c.order[c.active] = o
			c.slot[j] = c.active
			c.active++
		}
	}
	t.root = c.node(0, rows, n, ones, 0)
}

// split is the best split of a node found so far: its Gini gain, and the
// row copies and class-1 copies it sends left.
type split struct {
	gain      float64
	feature   int
	threshold float64
	n, ones   int
}

// node grows the subtree over [lo, hi) of the tree's row orders, which
// hold n row copies, ones of them class 1.
func (c *cart) node(lo, hi, n, ones, depth int) *treeNode {
	nd := &treeNode{leaf: true, class: majority(ones, n)}
	if depth >= c.maxDepth || n < 2*minLeaf {
		return nd
	}
	parent := gini(ones, n)
	if parent == 0 {
		return nd
	}
	best := split{gain: 1e-12, feature: -1}
	for _, j := range c.features {
		c.scan(j, c.order[c.slot[j]][lo:hi], n, ones, parent, &best)
	}
	if best.feature < 0 {
		return nd
	}
	nl := 0
	col := c.cols[best.feature]
	for _, r := range c.order[0][lo:hi] { // every order holds the node's rows
		c.left[r] = 0
		if col[r] <= best.threshold {
			c.left[r] = 1
		}
		nl += int(c.left[r])
	}
	if depth+1 < c.maxDepth {
		// Only children that may split read their ranges.
		for _, o := range c.order[:c.active] {
			c.partition(o[lo:hi])
		}
	}
	nd.leaf = false
	nd.feature = best.feature
	nd.threshold = best.threshold
	nd.left = c.node(lo, lo+nl, best.n, best.ones, depth+1)
	nd.right = c.node(lo+nl, hi, n-best.n, ones-best.ones, depth+1)
	return nd
}

// scan scores feature j's candidate thresholds on a node whose rows, in
// ascending order of feature j, are seg, and records any that beats best.
// The candidates are the midpoints between consecutive values of the
// node's sorted column, subsampled to maxThresholds by quantile; a NaN
// differs from every value, itself included, and sorts first, so n NaNs
// contribute n NaN midpoints (n-1 when the node holds nothing else). Each
// candidate's left side is the rows with x <= threshold, counted from the
// values: a midpoint can round onto its upper value, or overflow.
func (c *cart) scan(j int, seg []int32, n, ones int, parent float64, best *split) {
	col := c.cols[j]
	k, nan := 0, 0
	for k < len(seg) && col[seg[k]] != col[seg[k]] {
		nan += int(c.w[seg[k]])
		k++
	}
	vals, below, belowOnes := c.vals[:0], c.below[:0], c.ones[:0]
	var cn, co int32
	for _, r := range seg[k:] {
		if x := col[r]; len(vals) == 0 || x != vals[len(vals)-1] {
			vals = append(vals, x)
			below = append(below, cn)
			belowOnes = append(belowOnes, co)
		}
		cn += c.w[r]
		co += c.w[r] * int32(c.y[r])
	}
	below = append(below, cn)
	belowOnes = append(belowOnes, co)

	nanMids := 0
	if nan > 0 {
		nanMids = nan - 1
		if len(vals) > 0 {
			nanMids++
		}
	}
	mids := nanMids
	if len(vals) > 1 {
		mids += len(vals) - 1
	}
	p := 0 // vals[:p] are <= the current threshold
	for q := 0; q < min(mids, maxThresholds); q++ {
		m := q
		if mids > maxThresholds {
			m = q * (mids - 1) / (maxThresholds - 1)
		}
		if m < nanMids {
			continue // a NaN threshold sends every row right
		}
		b := m - nanMids + 1
		thr := (vals[b] + vals[b-1]) / 2
		// Thresholds ascend, so p only moves forward. The one NaN midpoint
		// among values, of -Inf and +Inf, comes first and keeps p at 0.
		for p < len(vals) && vals[p] <= thr {
			p++
		}
		lN, lOnes := int(below[p]), int(belowOnes[p])
		rN, rOnes := n-lN, ones-lOnes
		if lN < minLeaf || rN < minLeaf {
			continue
		}
		pl := float64(lOnes) / float64(lN)
		pr := float64(rOnes) / float64(rN)
		impurity := (float64(lN)*2*pl*(1-pl) + float64(rN)*2*pr*(1-pr)) / float64(n)
		if gain := parent - impurity; gain > best.gain {
			*best = split{gain: gain, feature: j, threshold: thr, n: lN, ones: lOnes}
		}
	}
}

// partition reorders seg stably so that the rows marked left come first.
// Every row is written to both sides and only its own side's end advances,
// which the processor does not have to predict.
func (c *cart) partition(seg []int32) {
	l, s := 0, 0
	for _, r := range seg {
		k := int(c.left[r])
		seg[l] = r // l never passes the row being read
		c.spill[s] = r
		l += k
		s += 1 - k
	}
	copy(seg[l:], c.spill[:s])
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) int {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// RandomForest is a bagged ensemble of decision trees with per-tree feature
// subsampling — the Income Prediction case study's classifier.
type RandomForest struct {
	// Trees is the ensemble size (default 20).
	Trees int
	// MaxDepth is per-tree depth (default 6).
	MaxDepth int
	// MTry is the number of features sampled per tree (default ⌊√d⌋).
	MTry int
	// Seed drives bootstrap and feature sampling (deterministic).
	Seed int64

	ensemble []*DecisionTree
}

// Fit trains the forest on a feature matrix and binary labels. Each tree
// trains on a bootstrap sample, kept as per-row copy counts. The trees
// train concurrently, on up to GOMAXPROCS goroutines with one workspace
// each, from one shared column-major copy of X whose per-feature row
// orders are sorted once. The forest's one random source is drawn from in
// tree order: a goroutine claims the next tree and draws its counts and
// features under one lock, so every tree is the one a sequential fit
// would train, whatever the goroutine count.
func (f *RandomForest) Fit(X [][]float64, y []int) {
	if f.Trees == 0 {
		f.Trees = 20
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 6
	}
	f.ensemble = nil
	if len(X) == 0 || f.Trees < 0 {
		return
	}
	rng := rand.New(rand.NewSource(f.Seed + 1))
	n, d := len(X), len(X[0])
	mtry := f.MTry
	if mtry <= 0 {
		mtry = intSqrt(d)
	}
	if mtry < 1 {
		mtry = 1
	}
	if mtry > d {
		mtry = d
	}
	workers := min(runtime.GOMAXPROCS(0), f.Trees)
	ts := newTrainSet(X, y, workers)
	f.ensemble = make([]*DecisionTree, f.Trees)
	var (
		mu   sync.Mutex
		next int // the next tree to claim
	)
	together(workers, func() {
		c := ts.workspace()
		for {
			mu.Lock()
			b := next
			if b == f.Trees {
				mu.Unlock()
				return
			}
			next++
			clear(c.w)
			for i := 0; i < n; i++ {
				c.w[rng.Intn(n)]++
			}
			tree := &DecisionTree{MaxDepth: f.MaxDepth, Features: rng.Perm(d)[:mtry]}
			mu.Unlock()
			c.train(tree)
			f.ensemble[b] = tree
		}
	})
}

func intSqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Predict implements Classifier by majority vote.
func (f *RandomForest) Predict(x []float64) int {
	ones := 0
	for _, t := range f.ensemble {
		ones += t.Predict(x)
	}
	if 2*ones >= len(f.ensemble) {
		return 1
	}
	return 0
}
