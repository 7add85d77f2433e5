package ml

import (
	"math/rand"
	"sort"
)

// DecisionTree is a CART binary classifier: axis-aligned threshold splits
// chosen by Gini impurity.
type DecisionTree struct {
	// MaxDepth bounds the tree depth (default 6).
	MaxDepth int
	// Features optionally restricts splits to a feature subset (used by
	// random forests); nil means all features.
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

func (t *DecisionTree) fillDefaults() {
	if t.MaxDepth == 0 {
		t.MaxDepth = 6
	}
}

// Fit trains the tree on a feature matrix and binary labels.
func (t *DecisionTree) Fit(X [][]float64, y []int) {
	t.fillDefaults()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, 0)
}

// gini returns the Gini impurity of the label multiset at idx.
func gini(y []int, idx []int) float64 {
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

// majority returns the majority class at idx (ties → class 1).
func majority(y []int, idx []int) int {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	if 2*ones >= len(idx) {
		return 1
	}
	return 0
}

func (t *DecisionTree) build(X [][]float64, y []int, idx []int, depth int) *treeNode {
	node := &treeNode{leaf: true, class: majority(y, idx)}
	if depth >= t.MaxDepth || len(idx) < 2*minLeaf || gini(y, idx) == 0 {
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
	parentImpurity := gini(y, idx)
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
func (t *DecisionTree) candidateThresholds(X [][]float64, idx []int, j int) []float64 {
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

// Fit trains the forest on a feature matrix and binary labels.
func (f *RandomForest) Fit(X [][]float64, y []int) {
	if f.Trees == 0 {
		f.Trees = 20
	}
	if f.MaxDepth == 0 {
		f.MaxDepth = 6
	}
	if len(X) == 0 {
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
	f.ensemble = nil
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
		tree := &DecisionTree{MaxDepth: f.MaxDepth, Features: features}
		tree.Fit(bx, by)
		f.ensemble = append(f.ensemble, tree)
	}
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
