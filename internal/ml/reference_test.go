package ml

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// The reference models below are DecisionTree, RandomForest, AdaBoost,
// Encoder.Encode and SentimentLexicon.Score as they were before the trees
// trained from presorted row orders, the stumps from one pass per feature,
// Encode into one array and Score tokenized in place; the code is
// unchanged but for names. The trained models and the scores must match
// them bit for bit.

// refTree is the reference DecisionTree: every node copies and sorts each
// candidate feature, then scans its rows once per threshold.
type refTree struct {
	MaxDepth int
	Features []int

	root *treeNode
}

func (t *refTree) Fit(X [][]float64, y []int) {
	if t.MaxDepth == 0 {
		t.MaxDepth = 6
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, 0)
}

// refGini returns the Gini impurity of the label multiset at idx.
func refGini(y []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	p := float64(ones) / float64(len(idx))
	return 2 * p * (1 - p)
}

// refMajority returns the majority class at idx (ties → class 1).
func refMajority(y []int, idx []int) int {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	if 2*ones >= len(idx) {
		return 1
	}
	return 0
}

func (t *refTree) build(X [][]float64, y []int, idx []int, depth int) *treeNode {
	node := &treeNode{leaf: true, class: refMajority(y, idx)}
	if depth >= t.MaxDepth || len(idx) < 2*minLeaf || refGini(y, idx) == 0 {
		return node
	}
	features := t.Features
	if features == nil {
		features = make([]int, len(X[0]))
		for j := range features {
			features[j] = j
		}
	}
	bestGain := 1e-12
	bestFeature, bestThreshold := -1, 0.0
	parentImpurity := refGini(y, idx)
	for _, j := range features {
		thresholds := t.candidateThresholds(X, idx, j)
		for _, thr := range thresholds {
			var lOnes, lN, rOnes, rN int
			for _, i := range idx {
				if X[i][j] <= thr {
					lN++
					lOnes += y[i]
				} else {
					rN++
					rOnes += y[i]
				}
			}
			if lN < minLeaf || rN < minLeaf {
				continue
			}
			pl := float64(lOnes) / float64(lN)
			pr := float64(rOnes) / float64(rN)
			impurity := (float64(lN)*2*pl*(1-pl) + float64(rN)*2*pr*(1-pr)) / float64(len(idx))
			if gain := parentImpurity - impurity; gain > bestGain {
				bestGain, bestFeature, bestThreshold = gain, j, thr
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	node.leaf = false
	node.feature = bestFeature
	node.threshold = bestThreshold
	node.left = t.build(X, y, li, depth+1)
	node.right = t.build(X, y, ri, depth+1)
	return node
}

// candidateThresholds returns midpoints between consecutive distinct values
// of feature j at idx, subsampled to maxThresholds by quantile.
func (t *refTree) candidateThresholds(X [][]float64, idx []int, j int) []float64 {
	vals := make([]float64, 0, len(idx))
	for _, i := range idx {
		vals = append(vals, X[i][j])
	}
	sort.Float64s(vals)
	var mids []float64
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			mids = append(mids, (vals[i]+vals[i-1])/2)
		}
	}
	if len(mids) <= maxThresholds {
		return mids
	}
	out := make([]float64, maxThresholds)
	for k := 0; k < maxThresholds; k++ {
		out[k] = mids[k*(len(mids)-1)/(maxThresholds-1)]
	}
	return out
}

// refForestFit is the reference RandomForest.Fit: each tree trains on a
// materialized bootstrap sample. It returns the ensemble.
func refForestFit(f *RandomForest, X [][]float64, y []int) []*refTree {
	if f.Trees == 0 {
		f.Trees = 20
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 6
	}
	if len(X) == 0 {
		return nil
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
	var ensemble []*refTree
	for b := 0; b < f.Trees; b++ {
		bi := make([]int, n)
		for i := range bi {
			bi[i] = rng.Intn(n)
		}
		bx := make([][]float64, n)
		by := make([]int, n)
		for i, src := range bi {
			bx[i] = X[src]
			by[i] = y[src]
		}
		features := rng.Perm(d)[:mtry]
		tree := &refTree{MaxDepth: f.MaxDepth, Features: features}
		tree.Fit(bx, by)
		ensemble = append(ensemble, tree)
	}
	return ensemble
}

// refAdaBoostFit is the reference AdaBoost.Fit: every candidate stump walks
// every row through stump.predict, once per polarity.
func refAdaBoostFit(a *AdaBoost, X [][]float64, y []int) {
	if a.Rounds == 0 {
		a.Rounds = 50
	}
	n := len(X)
	if n == 0 {
		return
	}
	d := len(X[0])
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	// Precompute candidate thresholds per feature.
	thresholds := make([][]float64, d)
	for j := 0; j < d; j++ {
		vals := make([]float64, n)
		for i := range X {
			vals[i] = X[i][j]
		}
		sort.Float64s(vals)
		var mids []float64
		for i := 1; i < n; i++ {
			if vals[i] != vals[i-1] {
				mids = append(mids, (vals[i]+vals[i-1])/2)
			}
		}
		if len(mids) > maxThresholds {
			sub := make([]float64, maxThresholds)
			for k := 0; k < maxThresholds; k++ {
				sub[k] = mids[k*(len(mids)-1)/(maxThresholds-1)]
			}
			mids = sub
		}
		thresholds[j] = mids
	}
	a.stumps = nil
	for round := 0; round < a.Rounds; round++ {
		best := stump{feature: -1}
		bestErr := math.Inf(1)
		for j := 0; j < d; j++ {
			for _, thr := range thresholds[j] {
				for _, pol := range []int{1, -1} {
					s := stump{feature: j, threshold: thr, polarity: pol}
					e := 0.0
					for i := range X {
						if s.predict(X[i]) != y[i] {
							e += w[i]
						}
					}
					if e < bestErr {
						bestErr = e
						best = s
					}
				}
			}
		}
		if best.feature < 0 {
			break
		}
		const eps = 1e-10
		if bestErr >= 0.5-eps {
			break // no weak learner better than chance
		}
		best.alpha = 0.5 * math.Log((1-bestErr+eps)/(bestErr+eps))
		a.stumps = append(a.stumps, best)
		// Reweight: misclassified points gain weight.
		sum := 0.0
		for i := range w {
			sign := -1.0
			if best.predict(X[i]) != y[i] {
				sign = 1.0
			}
			w[i] *= math.Exp(sign * best.alpha)
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		if bestErr < eps {
			break // perfect weak learner: ensemble is already exact
		}
	}
}

// refEncode is the reference Encoder.Encode: one slice per row, grown by
// append, each feature column looked up per row.
func refEncode(e *Encoder, d *dataset.Dataset) (X [][]float64, y, rows []int, err error) {
	lc := d.Column(e.label)
	if lc == nil {
		return nil, nil, nil, fmt.Errorf("ml: label attribute %q not found", e.label)
	}
	for _, s := range e.specs {
		if d.Column(s.attr) == nil {
			return nil, nil, nil, fmt.Errorf("ml: feature attribute %q not found", s.attr)
		}
	}
	for r := 0; r < d.NumRows(); r++ {
		if lc.NullAt(r) {
			continue
		}
		x := make([]float64, e.width)
		for _, s := range e.specs {
			c := d.Column(s.attr)
			if s.numeric {
				if c.Kind != dataset.Numeric {
					return nil, nil, nil, fmt.Errorf("ml: attribute %q changed kind", s.attr)
				}
				if c.NullAt(r) {
					x[s.offset] = s.mean
				} else {
					x[s.offset] = c.NumAt(r)
				}
				continue
			}
			if c.Kind == dataset.Numeric {
				return nil, nil, nil, fmt.Errorf("ml: attribute %q changed kind", s.attr)
			}
			if !c.NullAt(r) {
				if i, ok := s.index[c.StrAt(r)]; ok {
					x[s.offset+i] = 1
				}
			}
		}
		X = append(X, x)
		var cls int
		if lc.Kind == dataset.Numeric {
			if lc.NumAt(r) > 0.5 {
				cls = 1
			}
		} else if lc.StrAt(r) == e.positive {
			cls = 1
		}
		y = append(y, cls)
		rows = append(rows, r)
	}
	return X, y, rows, nil
}

// refLexicon holds the reference SentimentLexicon's word sets.
var refLexicon = struct{ positive, negative, negators map[string]bool }{
	wordSet(positiveWords), wordSet(negativeWords), wordSet(negatorWords),
}

func wordSet(words []string) map[string]bool {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return m
}

// refSentimentScore is the reference SentimentLexicon.Score: the text
// lowered and split by strings.ToLower and strings.Fields, each token
// trimmed and stripped of apostrophes, then looked up in one map per list.
func refSentimentScore(text string) float64 {
	score := 0.0
	negate := false
	for _, raw := range strings.Fields(strings.ToLower(text)) {
		tok := strings.Trim(raw, ".,!?;:'\"()-")
		tok = strings.ReplaceAll(tok, "'", "")
		switch {
		case refLexicon.negators[tok]:
			negate = true
			continue
		case refLexicon.positive[tok]:
			if negate {
				score--
			} else {
				score++
			}
		case refLexicon.negative[tok]:
			if negate {
				score++
			} else {
				score--
			}
		}
		negate = false
	}
	return score
}

// treeDiff describes the first difference between two trees, or returns ""
// when their shapes, split features, threshold bits and leaf classes match.
func treeDiff(got, want *treeNode, path string) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("%s: node %v, want %v", path, got != nil, want != nil)
	case got == nil:
		return ""
	case got.leaf != want.leaf:
		return fmt.Sprintf("%s: leaf %v, want %v", path, got.leaf, want.leaf)
	case got.leaf:
		if got.class != want.class {
			return fmt.Sprintf("%s: class %d, want %d", path, got.class, want.class)
		}
		return ""
	case got.feature != want.feature || math.Float64bits(got.threshold) != math.Float64bits(want.threshold):
		return fmt.Sprintf("%s: split x%d <= %v (%#x), want x%d <= %v (%#x)", path,
			got.feature, got.threshold, math.Float64bits(got.threshold),
			want.feature, want.threshold, math.Float64bits(want.threshold))
	}
	if d := treeDiff(got.left, want.left, path+"L"); d != "" {
		return d
	}
	return treeDiff(got.right, want.right, path+"R")
}

// specials are the values that stress the threshold rule: NaN sorts first
// and goes right of every threshold; -Inf and +Inf have a NaN midpoint, and
// MaxFloat64 and its neighbour one that overflows; -0 equals +0;
// subnormals halve inexactly; the midpoint of 1 and the next float rounds
// down onto 1, that of the next two floats up onto the upper one.
var specials = func() []float64 {
	one1 := math.Nextafter(1, 2)
	big := math.Nextafter(math.MaxFloat64, 0)
	return []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, 1e-323, -5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, big, -math.MaxFloat64,
		1, one1, math.Nextafter(one1, 2), -1, 0.5,
	}
}()

// value maps a byte onto the value alphabet: the specials, then the 48
// integers 0..47, so that a column can hold more or fewer than
// maxThresholds distinct values.
func value(b byte) float64 {
	if int(b) < len(specials) {
		return specials[b]
	}
	return float64((int(b) - len(specials)) % 48)
}

// randomColumn fills col with one of the column shapes the trees meet.
func randomColumn(rng *rand.Rand, col []float64) {
	switch rng.Intn(7) {
	case 0: // all equal
		v := value(byte(rng.Intn(256)))
		for i := range col {
			col[i] = v
		}
	case 1: // one-hot
		for i := range col {
			col[i] = float64(rng.Intn(2))
		}
	case 2: // at most 32 distinct values
		k := 2 + rng.Intn(31)
		for i := range col {
			col[i] = float64(rng.Intn(k))
		}
	case 3: // many distinct values
		for i := range col {
			col[i] = rng.NormFloat64()
		}
	case 4: // mostly NaN
		for i := range col {
			col[i] = math.NaN()
			if rng.Intn(3) == 0 {
				col[i] = value(byte(rng.Intn(256)))
			}
		}
	default: // the alphabet, specials often
		for i := range col {
			if rng.Intn(2) == 0 {
				col[i] = specials[rng.Intn(len(specials))]
			} else {
				col[i] = value(byte(rng.Intn(256)))
			}
		}
	}
}

// randomInstance draws a training set of 0 to 300 rows and 1 to 5 features
// from randomColumn's shapes, with labels that follow the first feature
// with noise, or none.
func randomInstance(rng *rand.Rand) (X [][]float64, y []int) {
	var n int
	switch rng.Intn(4) {
	case 0:
		n = rng.Intn(2 * minLeaf) // too few rows to split
	case 1:
		n = 4 + rng.Intn(30)
	default:
		n = 30 + rng.Intn(270)
	}
	d := 1 + rng.Intn(5)
	cols := make([][]float64, d)
	for j := range cols {
		cols[j] = make([]float64, n)
		randomColumn(rng, cols[j])
	}
	X = make([][]float64, n)
	y = make([]int, n)
	noise := rng.Float64()
	for i := range X {
		X[i] = make([]float64, d)
		for j := range cols {
			X[i][j] = cols[j][i]
		}
		if cols[0][i] > 0.5 {
			y[i] = 1
		}
		if rng.Float64() < noise {
			y[i] = rng.Intn(2)
		}
	}
	return X, y
}

// randomFeatures returns nil (all features) or a random, possibly empty,
// ordered subset of d features.
func randomFeatures(rng *rand.Rand, d int) []int {
	if rng.Intn(2) == 0 {
		return nil
	}
	return rng.Perm(d)[:rng.Intn(d+1)]
}

// checkTree fits a DecisionTree and the reference on the same input and
// reports any difference.
func checkTree(t *testing.T, name string, X [][]float64, y []int, depth int, features []int) {
	t.Helper()
	got := &DecisionTree{MaxDepth: depth, Features: features}
	fitTree(got, X, y)
	want := &refTree{MaxDepth: depth, Features: features}
	want.Fit(X, y)
	if d := treeDiff(got.root, want.root, "root"); d != "" {
		t.Fatalf("%s (%d rows, depth %d, features %v): %s", name, len(X), depth, features, d)
	}
}

func TestTreeMatchesReference(t *testing.T) {
	// The midpoint of the two floats after 1 rounds onto the upper one, so
	// every row is <= it and the only threshold cannot split; counting the
	// rows below the value boundary instead would split them.
	up := math.Nextafter(1, 2)
	up2 := math.Nextafter(up, 2)
	checkTree(t, "midpoint rounds up", [][]float64{{up}, {up2}, {up}, {up2}, {up}, {up2}}, []int{0, 1, 0, 1, 0, 1}, 3, nil)
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 3000; k++ {
		X, y := randomInstance(rng)
		d := 1
		if len(X) > 0 {
			d = len(X[0])
		}
		checkTree(t, fmt.Sprintf("instance %d", k), X, y, 1+rng.Intn(8), randomFeatures(rng, d))
	}
	X, y := incomeMatrix(t, 3000, 4, true)
	checkTree(t, "income", X, y, 7, nil)
	checkTree(t, "income, six features", X, y, 7, []int{9, 0, 4, 1, 7, 2})
	X, y = cardioMatrix(t, 10_000, 4)
	checkTree(t, "cardio", X, y, 6, nil)
}

func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 1, 5, 0, 2, 0, 9, 1, 9, 1})
	f.Add([]byte{7, 2, 0x83, 0, 0, 0, 1, 1, 1, 2, 2, 0, 3, 3, 1, 4, 4, 0, 12, 13, 1, 13, 14, 0, 14, 12, 1})
	f.Add([]byte{5, 0, 0, 1, 0, 1, 0, 2, 0, 2, 1, 11, 1, 10, 0, 11, 1, 9, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		depth, d, mask := 1+int(data[0]%8), 1+int(data[1]%4), data[2]
		var features []int
		if mask&0x80 != 0 {
			features = []int{}
			for j := 0; j < d; j++ {
				if mask&(1<<j) != 0 {
					features = append(features, (j+int(mask>>4))%d)
				}
			}
		}
		rows := data[3:]
		n := len(rows) / (d + 1)
		X, y := make([][]float64, n), make([]int, n)
		for i := range X {
			cells := rows[i*(d+1) : (i+1)*(d+1)]
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = value(cells[j])
			}
			y[i] = int(cells[d] & 1)
		}
		checkTree(t, "fuzz", X, y, depth, features)
	})
}

func TestRandomForestMatchesReference(t *testing.T) {
	check := func(name string, f RandomForest, X [][]float64, y []int) {
		t.Helper()
		ref := f
		want := refForestFit(&ref, X, y)
		got := f
		got.Fit(X, y)
		if d := forestDiff(&got, want, X); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for k := 0; k < 300; k++ {
		X, y := randomInstance(rng)
		f := RandomForest{Trees: 1 + rng.Intn(5), MaxDepth: 1 + rng.Intn(8), MTry: rng.Intn(4), Seed: rng.Int63()}
		check(fmt.Sprintf("instance %d", k), f, X, y)
	}
	income := RandomForest{Trees: 15, MaxDepth: 7, MTry: 6, Seed: 13}
	for _, biased := range []bool{false, true} {
		X, y := incomeMatrix(t, 3000, 4, biased)
		check(fmt.Sprintf("income, biased %v", biased), income, X, y)
	}
}

// TestModelsIndependentOfProcs trains Income's forest under several
// GOMAXPROCS settings: however many goroutines train its trees, each must
// be the reference's.
func TestModelsIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{4, 5} {
		X, y := incomeMatrix(t, 3000, seed, true)
		income := RandomForest{Trees: 15, MaxDepth: 7, MTry: 6, Seed: 13}
		ref := income
		want := refForestFit(&ref, X, y)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got := income
			got.Fit(X, y)
			if d := forestDiff(&got, want, X); d != "" {
				t.Errorf("seed %d, GOMAXPROCS %d: %s", seed, procs, d)
			}
		}
	}
}

// forestDiff describes the first difference between a fitted forest and
// the reference ensemble (tree features, depth, shape, split features,
// threshold bits and leaf classes, then each row's vote), or returns "".
func forestDiff(got *RandomForest, want []*refTree, X [][]float64) string {
	if len(got.ensemble) != len(want) {
		return fmt.Sprintf("%d trees, want %d", len(got.ensemble), len(want))
	}
	for b, tree := range got.ensemble {
		if !reflect.DeepEqual(tree.Features, want[b].Features) || tree.MaxDepth != want[b].MaxDepth {
			return fmt.Sprintf("tree %d features %v depth %d, want %v depth %d", b,
				tree.Features, tree.MaxDepth, want[b].Features, want[b].MaxDepth)
		}
		if d := treeDiff(tree.root, want[b].root, "root"); d != "" {
			return fmt.Sprintf("tree %d: %s", b, d)
		}
	}
	for i, x := range X {
		votes := 0
		for _, tree := range want {
			votes += predictNode(tree.root, x)
		}
		wantClass := 0
		if 2*votes >= len(want) {
			wantClass = 1
		}
		if c := got.Predict(x); c != wantClass {
			return fmt.Sprintf("row %d predicts %d, want %d", i, c, wantClass)
		}
	}
	return ""
}

// predictNode walks a reference tree.
func predictNode(n *treeNode, x []float64) int {
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

func TestAdaBoostMatchesReference(t *testing.T) {
	check := func(name string, rounds int, X [][]float64, y []int) []stump {
		t.Helper()
		want := &AdaBoost{Rounds: rounds}
		refAdaBoostFit(want, X, y)
		got := &AdaBoost{Rounds: rounds}
		got.Fit(X, y)
		if len(got.stumps) != len(want.stumps) {
			t.Fatalf("%s: %d stumps, want %d", name, len(got.stumps), len(want.stumps))
		}
		for k, s := range got.stumps {
			w := want.stumps[k]
			if s.feature != w.feature || s.polarity != w.polarity ||
				math.Float64bits(s.threshold) != math.Float64bits(w.threshold) ||
				math.Float64bits(s.alpha) != math.Float64bits(w.alpha) {
				t.Fatalf("%s: stump %d = %+v, want %+v", name, k, s, w)
			}
		}
		return got.stumps
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 400; k++ {
		X, y := randomInstance(rng)
		check(fmt.Sprintf("instance %d", k), 1+rng.Intn(20), X, y)
	}
	X, y := cardioMatrix(t, 10_000, 4)
	if s := check("cardio", 40, X, y); len(s) != 40 {
		t.Errorf("cardio: %d stumps, want 40", len(s))
	}
	// Every stump of XOR errs on half the weight: training stops before
	// the first round's stump.
	xor := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if s := check("xor", 10, xor, []int{0, 1, 1, 0}); len(s) != 0 {
		t.Errorf("xor: %d stumps, want none", len(s))
	}
	// A perfect stump ends training after one round.
	if s := check("separable", 10, [][]float64{{1}, {2}, {3}, {4}}, []int{0, 0, 1, 1}); len(s) != 1 {
		t.Errorf("separable: %d stumps, want 1", len(s))
	}
	// No thresholds: no stump at all.
	if s := check("constant", 10, [][]float64{{7}, {7}, {7}}, []int{0, 1, 1}); len(s) != 0 {
		t.Errorf("constant: %d stumps, want none", len(s))
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	null := func(n int, every int) []bool {
		b := make([]bool, n)
		for i := 0; i < n; i += every {
			b[i] = true
		}
		return b
	}
	// build returns a dataset with feature columns x and g and a label;
	// kinds gives their kinds in that order: n(umeric), c(ategorical) or
	// t(ext). The encoder learned x numeric and g categorical, so any
	// other kind is a kind change.
	build := func(labelNulls []bool, kinds string) *dataset.Dataset {
		n := len(labelNulls)
		d := dataset.New()
		num := make([]float64, n)
		cat := make([]string, n)
		lab := make([]string, n)
		for i := range num {
			num[i] = float64(i%7) * 1.5
			cat[i] = []string{"a", "b", "c", "z"}[i%4] // "z" is unseen in training
			lab[i] = []string{"yes", "no"}[i%2]
		}
		if kinds[0] == 'n' {
			if err := d.AddNumericColumn("x", num, null(n, 3)); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.AddCategoricalColumn("x", cat, null(n, 3)); err != nil {
				t.Fatal(err)
			}
		}
		switch kinds[1] {
		case 'c':
			if err := d.AddCategoricalColumn("g", cat, null(n, 5)); err != nil {
				t.Fatal(err)
			}
		case 't':
			if err := d.AddTextColumn("g", cat, null(n, 5)); err != nil {
				t.Fatal(err)
			}
		default:
			if err := d.AddNumericColumn("g", num, null(n, 5)); err != nil {
				t.Fatal(err)
			}
		}
		if kinds[2] == 'n' {
			if err := d.AddNumericColumn("label", num, labelNulls); err != nil {
				t.Fatal(err)
			}
		} else if err := d.AddCategoricalColumn("label", lab, labelNulls); err != nil {
			t.Fatal(err)
		}
		return d
	}
	train := dataset.New().
		MustAddNumeric("x", []float64{1, 2, 4}).
		MustAddCategorical("g", []string{"a", "b", "c"}).
		MustAddCategorical("label", []string{"yes", "no", "yes"})
	enc, err := NewEncoder(train, []string{"x", "g"}, "label", "yes")
	if err != nil {
		t.Fatal(err)
	}
	for _, labels := range [][]bool{null(12, 4), null(12, 1), make([]bool, 12), {}} {
		for _, kinds := range []string{"ncc", "nct", "ncn", "ccc", "nnc", "cnc"} {
			d := build(labels, kinds)
			X, y, rows, err := enc.Encode(d)
			wX, wy, wrows, werr := refEncode(enc, d)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(X, wX) ||
				!reflect.DeepEqual(y, wy) || !reflect.DeepEqual(rows, wrows) {
				t.Errorf("labels %v, kinds %s:\n got %v %v %v %v\nwant %v %v %v %v",
					labels, kinds, X, y, rows, err, wX, wy, wrows, werr)
			}
			X, y, rows = nil, nil, nil
			err = enc.EncodeEach(d, func(x []float64, cls, r int) {
				X = append(X, append([]float64(nil), x...))
				y, rows = append(y, cls), append(rows, r)
			})
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(X, wX) ||
				!reflect.DeepEqual(y, wy) || !reflect.DeepEqual(rows, wrows) {
				t.Errorf("EncodeEach, labels %v, kinds %s:\n got %v %v %v %v\nwant %v %v %v %v",
					labels, kinds, X, y, rows, err, wX, wy, wrows, werr)
			}
		}
	}
	noX := dataset.New().
		MustAddCategorical("g", []string{"a"}).
		MustAddCategorical("label", []string{"yes"})
	noLabel := dataset.New().
		MustAddNumeric("x", []float64{1}).
		MustAddCategorical("g", []string{"a"})
	for _, d := range []*dataset.Dataset{noX, noLabel} {
		_, _, _, err := enc.Encode(d)
		_, _, _, werr := refEncode(enc, d)
		if err == nil || err.Error() != werr.Error() {
			t.Errorf("columns %v: err %v, want %v", d.ColumnNames(), err, werr)
		}
		if err := enc.EncodeEach(d, func([]float64, int, int) {}); err == nil || err.Error() != werr.Error() {
			t.Errorf("EncodeEach, columns %v: err %v, want %v", d.ColumnNames(), err, werr)
		}
	}
}

// lexiconPieces are the fragments TestSentimentScoreMatchesReference joins
// into texts: lexicon words and negators in mixed case, with and without
// apostrophes; every byte of the trim set; the six ASCII spaces and the
// two Latin-1 spaces (U+0085, U+00A0) strings.Fields splits on; letters
// whose lower case is not ASCII or changes length; and tokens longer than
// Score's stack buffer.
var lexiconPieces = []string{
	"good", "Good", "BAD", "Bad", "love", "hate", "gem", "dull",
	"not", "Not", "NEVER", "isn't", "'didnt'", "do'n't", "x", "ok",
	".", ",", "!", "?", ";", ":", "'", "\"", "(", ")", "-", "--",
	" ", " ", " ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0",
	"É", "\u0130", strings.Repeat("w", 40), "g" + strings.Repeat("'", 40) + "ood",
}

func TestSentimentScoreMatchesReference(t *testing.T) {
	s := NewSentimentLexicon()
	rng := rand.New(rand.NewSource(5))
	var b strings.Builder
	for k := 0; k < 20_000; k++ {
		b.Reset()
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(lexiconPieces[rng.Intn(len(lexiconPieces))])
		}
		text := b.String()
		if got, want := s.Score(text), refSentimentScore(text); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Score(%q) = %v, want %v", text, got, want)
		}
	}
}

func FuzzSentimentScoreMatchesReference(f *testing.F) {
	for _, space := range []string{" ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0"} {
		f.Add("not" + space + "good" + space + "bad")
	}
	for _, c := range ".,!?;:'\"()-" {
		f.Add(string(c) + "good" + string(c) + " " + string(c) + "bad" + string(c))
	}
	f.Add("not -- good")
	f.Add("isn't good, didn't love it, 'not' bad, wasn't' dull, 'gem")
	f.Add("NOT GOOD. Not Bad! never HATED")
	f.Add("good not")
	f.Add("not not bad")
	f.Add("not " + strings.Repeat("w", 40) + " good " + "g" + strings.Repeat("'", 40) + "ood")
	s := NewSentimentLexicon()
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := s.Score(text), refSentimentScore(text); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Score(%q) = %v, want %v", text, got, want)
		}
	})
}

// TestEncoderMeanMatchesReference checks the NULL imputation value
// NewEncoder learns for a numeric feature against the mean it took before,
// stats.Mean of Dataset.NumericValues (0 when that is NaN), across chunk
// sizes, NULLs and the special values.
func TestEncoderMeanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 500; k++ {
		n := rng.Intn(300)
		vals, null, labels := make([]float64, n), make([]bool, n), make([]string, n)
		randomColumn(rng, vals)
		every := 1 + rng.Intn(4)
		for i := range null {
			null[i] = rng.Intn(every) == 0
			labels[i] = "yes"
		}
		d := dataset.New()
		if err := d.AddNumericColumn("x", vals, null); err != nil {
			t.Fatal(err)
		}
		d = d.MustAddCategorical("label", labels).Rechunk(1 + rng.Intn(70))
		enc, err := NewEncoder(d, []string{"x"}, "label", "yes")
		if err != nil {
			t.Fatal(err)
		}
		want := stats.Mean(d.NumericValues("x"))
		if math.IsNaN(want) {
			want = 0
		}
		if got := enc.specs[0].mean; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("instance %d (%d rows, %d chunks): mean %v (%#x), want %v (%#x)", k, n,
				d.Column("x").NumChunks(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestEncodeAllocations(t *testing.T) {
	d := cardioDataset(t, 10_000, 4)
	enc, err := NewEncoder(d, cardioFeatures, "target", "1")
	if err != nil {
		t.Fatal(err)
	}
	var X [][]float64
	got := allocated(func() { X, _, _, err = enc.Encode(d) })
	if err != nil {
		t.Fatal(err)
	}
	n, width := uint64(len(X)), uint64(len(X[0]))
	matrix := n*uint64(unsafe.Sizeof(X[0])) + n*width*8
	labels := 2 * n * uint64(unsafe.Sizeof(0))
	// The allocator rounds a large allocation up to whole pages.
	if limit := (matrix+labels)*17/16 + 4096; got > limit {
		t.Errorf("Encode of %d rows allocated %d bytes, want at most %d (matrix %d, y and rows %d)",
			n, got, limit, matrix, labels)
	}
}

// countNodes returns the number of nodes of a tree.
func countNodes(n *treeNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

func TestRandomForestFitAllocations(t *testing.T) {
	X, y := incomeMatrix(t, 3000, 4, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var f *RandomForest
		got := allocated(func() {
			f = &RandomForest{Trees: 15, MaxDepth: 7, MTry: 6, Seed: 13}
			f.Fit(X, y)
		})
		nodes := 0
		for _, tree := range f.ensemble {
			nodes += countNodes(tree.root)
		}
		n, d := uint64(len(X)), uint64(len(X[0]))
		// Shared by the training goroutines: the column-major copy and the
		// per-feature row orders, sorted once.
		shared := n*d*8 + n*d*4
		// One per training goroutine: the tree's row orders (one per feature
		// it splits on), the row counts and marks, the partition spill and
		// one feature's scan.
		scratch := uint64(f.MTry)*n*4 + n*(4+1+4) + n*8 + 2*(n+1)*4
		workspace := shared + uint64(min(procs, f.Trees))*scratch
		// Per tree: the DecisionTree, its feature permutation and the forest's
		// tree list; the workspaces' slice headers.
		perTree := uint64(unsafe.Sizeof(DecisionTree{})) + d*8 + 8
		// The allocator rounds a large allocation up to whole pages, and the
		// forest's random source takes about 5 KB.
		limit := uint64(nodes)*uint64(unsafe.Sizeof(treeNode{})) + workspace*17/16 + uint64(f.Trees)*perTree + 8192
		if got > limit {
			t.Errorf("GOMAXPROCS %d: 15-tree forest on %d rows allocated %d bytes, want at most %d (%d nodes, workspace %d)",
				procs, n, got, limit, nodes, workspace)
		}
	}
}

// cardioFeatures are the Cardio case study's model inputs.
var cardioFeatures = []string{"age", "height", "weight", "ap_hi", "ap_lo", "cholesterol"}

// cardioDataset returns the n passing patient rows internal/workload
// generates for the Cardio case study from seed, with the same draws.
func cardioDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	age, height, weight := make([]float64, n), make([]float64, n), make([]float64, n)
	apHi, apLo := make([]float64, n), make([]float64, n)
	chol, target := make([]string, n), make([]string, n)
	for i := 0; i < n; i++ {
		age[i] = 35 + rng.Float64()*40
		height[i] = 150 + rng.Float64()*40
		apLo[i] = 60 + rng.Float64()*40
		apHi[i] = apLo[i] + 20 + rng.Float64()*40
		weight[i] = 50 + rng.Float64()*50
		chol[i] = []string{"normal", "above", "high"}[rng.Intn(3)]
		risk := 0.06
		if height[i] > 172 {
			risk += 0.55
		}
		if weight[i] > 85 {
			risk += 0.3
		}
		if apHi[i] > 150 {
			risk += 0.08
		}
		target[i] = "0"
		if rng.Float64() < risk {
			target[i] = "1"
		}
	}
	return dataset.New().
		MustAddNumeric("age", age).
		MustAddNumeric("height", height).
		MustAddNumeric("weight", weight).
		MustAddNumeric("ap_hi", apHi).
		MustAddNumeric("ap_lo", apLo).
		MustAddCategorical("cholesterol", chol).
		MustAddCategorical("target", target)
}

// cardioMatrix encodes cardioDataset as the Cardio case study does.
func cardioMatrix(t testing.TB, n int, seed int64) ([][]float64, []int) {
	d := cardioDataset(t, n, seed)
	enc, err := NewEncoder(d, cardioFeatures, "target", "1")
	if err != nil {
		t.Fatal(err)
	}
	X, y, _, err := enc.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	return X, y
}

// incomeMatrix returns the Income case study's encoding (age, hours, then
// education and occupation one-hot) of the n census rows internal/workload
// generates from seed, with the same draws; this package cannot import
// it. biased pushes women to the low label and shortens their hours, as
// the failing dataset does.
func incomeMatrix(t testing.TB, n int, seed int64, biased bool) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	age, hours := make([]float64, n), make([]float64, n)
	edu, occ, target := make([]string, n), make([]string, n), make([]string, n)
	bonus := map[string]float64{"HS": 0, "BS": 0.18, "MS": 0.3, "PhD": 0.4}
	for i := 0; i < n; i++ {
		age[i] = 20 + rng.Float64()*45
		hours[i] = 20 + rng.Float64()*40
		edu[i] = []string{"HS", "BS", "MS", "PhD"}[rng.Intn(4)]
		female := rng.Float64() < 0.5
		cum := []float64{0.3, 0.56, 0.76} // tech, exec, admin; service after
		if female {
			cum = []float64{0.2, 0.4, 0.72}
		}
		occ[i] = "service"
		for k, r := 0, rng.Float64(); k < len(cum); k++ {
			if r < cum[k] {
				occ[i] = []string{"tech", "exec", "admin"}[k]
				break
			}
		}
		p := 0.2 + bonus[edu[i]]
		if hours[i] > 45 {
			p += 0.15
		}
		if occ[i] == "exec" || occ[i] == "tech" {
			p += 0.05
		}
		if biased && female {
			p *= 0.1
			hours[i] -= 12
		}
		target[i] = "low"
		if rng.Float64() < p {
			target[i] = "high"
		}
	}
	d := dataset.New().
		MustAddNumeric("age", age).
		MustAddNumeric("hours", hours).
		MustAddCategorical("education", edu).
		MustAddCategorical("occupation", occ).
		MustAddCategorical("target", target)
	enc, err := NewEncoder(d, []string{"age", "hours", "education", "occupation"}, "target", "high")
	if err != nil {
		t.Fatal(err)
	}
	X, y, _, err := enc.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	return X, y
}
