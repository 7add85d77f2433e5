package ml

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// accuracy returns the fraction of predictions matching the labels, or 0
// for empty input.
func accuracy(pred, y []int) float64 {
	if len(pred) == 0 || len(pred) != len(y) {
		return 0
	}
	ok := 0
	for i := range pred {
		if pred[i] == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}

// linearlySeparable builds a 2-feature dataset split by x0 + x1 > 0.
func linearlySeparable(n int, seed int64) (X [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X = append(X, []float64{a, b})
		if a+b > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

func TestEncoder(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("g", []string{"F", "M", "F"}).
		MustAddNumeric("age", []float64{30, 40, 50}).
		MustAddCategorical("label", []string{"yes", "no", "yes"})
	e, err := NewEncoder(d, []string{"g", "age"}, "label", "yes")
	if err != nil {
		t.Fatal(err)
	}
	X, y, rows, err := e.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != 3 || len(y) != 3 || len(rows) != 3 {
		t.Fatalf("encoded %d rows", len(X))
	}
	if len(X[0]) != 3 { // F, M one-hot + age
		t.Fatalf("width = %d, want 3", len(X[0]))
	}
	if X[0][0] != 1 || X[0][1] != 0 || X[0][2] != 30 {
		t.Errorf("X[0] = %v", X[0])
	}
	if y[0] != 1 || y[1] != 0 {
		t.Errorf("y = %v", y)
	}
	// Unseen level encodes to zero block.
	d2 := dataset.New().
		MustAddCategorical("g", []string{"X"}).
		MustAddNumeric("age", []float64{30}).
		MustAddCategorical("label", []string{"no"})
	X2, _, _, err := e.Encode(d2)
	if err != nil {
		t.Fatal(err)
	}
	if X2[0][0] != 0 || X2[0][1] != 0 {
		t.Errorf("unseen level not zero: %v", X2[0])
	}
}

func TestEncoderNullsAndErrors(t *testing.T) {
	d := dataset.New()
	if err := d.AddNumericColumn("x", []float64{1, 2, 3}, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCategoricalColumn("label", []string{"y", "y", ""}, []bool{false, false, true}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEncoder(d, []string{"x"}, "label", "y")
	if err != nil {
		t.Fatal(err)
	}
	X, _, rows, err := e.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != 2 {
		t.Fatalf("NULL-label row should be skipped, got %d rows", len(X))
	}
	if rows[1] != 1 {
		t.Errorf("rows = %v", rows)
	}
	// NULL feature imputes the training mean (mean of {1,3} = 2).
	if X[1][0] != 2 {
		t.Errorf("NULL feature imputed to %g, want 2", X[1][0])
	}
	if _, err := NewEncoder(d, []string{"nope"}, "label", "y"); err == nil {
		t.Error("missing feature should error")
	}
	if _, err := NewEncoder(d, []string{"x"}, "nope", "y"); err == nil {
		t.Error("missing label should error")
	}
}

func TestLogisticRegression(t *testing.T) {
	X, y := linearlySeparable(400, 1)
	m := &LogisticRegression{}
	m.Fit(X, y)
	if acc := accuracy(PredictAll(m, X), y); acc < 0.95 {
		t.Errorf("train accuracy = %g, want ≥0.95", acc)
	}
	Xt, yt := linearlySeparable(200, 2)
	if acc := accuracy(PredictAll(m, Xt), yt); acc < 0.9 {
		t.Errorf("test accuracy = %g, want ≥0.9", acc)
	}
	if p := m.Prob([]float64{5, 5}); p < 0.9 {
		t.Errorf("deep positive-side prob = %g", p)
	}
	var unfit LogisticRegression
	if unfit.Prob([]float64{1, 2}) != 0.5 {
		t.Error("unfit model should predict 0.5")
	}
}

// xorData is not linearly separable; trees must beat logistic regression.
func xorData(n int, seed int64) (X [][]float64, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		X = append(X, []float64{a, b})
		if (a > 0) != (b > 0) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	return X, y
}

// fitTree trains t on X and y, every row counted once, as a forest trains
// a tree on a bootstrap sample's counts. Nil Features means all of them.
func fitTree(t *DecisionTree, X [][]float64, y []int) {
	c := newTrainSet(X, y, 1).workspace()
	for r := range c.w {
		c.w[r] = 1
	}
	tree := *t
	if tree.Features == nil {
		tree.Features = make([]int, len(c.cols))
		for j := range tree.Features {
			tree.Features[j] = j
		}
	}
	c.train(&tree)
	t.root = tree.root
}

func TestDecisionTreeXOR(t *testing.T) {
	X, y := xorData(400, 3)
	tr := &DecisionTree{MaxDepth: 4}
	fitTree(tr, X, y)
	if acc := accuracy(PredictAll(tr, X), y); acc < 0.95 {
		t.Errorf("tree XOR accuracy = %g", acc)
	}
	var empty DecisionTree
	if empty.Predict([]float64{0}) != 0 {
		t.Error("unfit tree should predict 0")
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tr := &DecisionTree{MaxDepth: 6}
	fitTree(tr, X, y)
	if tr.Predict([]float64{99}) != 1 {
		t.Error("pure-class training should predict that class everywhere")
	}
}

func TestRandomForest(t *testing.T) {
	X, y := xorData(500, 4)
	f := &RandomForest{Trees: 15, MaxDepth: 5, MTry: 2, Seed: 7}
	f.Fit(X, y)
	if acc := accuracy(PredictAll(f, X), y); acc < 0.9 {
		t.Errorf("forest accuracy = %g", acc)
	}
	// Determinism: same seed, same predictions.
	f2 := &RandomForest{Trees: 15, MaxDepth: 5, MTry: 2, Seed: 7}
	f2.Fit(X, y)
	for i := range X {
		if f.Predict(X[i]) != f2.Predict(X[i]) {
			t.Fatal("forest not deterministic for fixed seed")
		}
	}
}

func TestAdaBoost(t *testing.T) {
	X, y := linearlySeparable(300, 5)
	a := &AdaBoost{Rounds: 30}
	a.Fit(X, y)
	if acc := accuracy(PredictAll(a, X), y); acc < 0.9 {
		t.Errorf("adaboost accuracy = %g", acc)
	}
	// XOR requires several stumps but remains learnable to a degree.
	Xx, yx := xorData(300, 6)
	a2 := &AdaBoost{Rounds: 60}
	a2.Fit(Xx, yx)
	if acc := accuracy(PredictAll(a2, Xx), yx); acc < 0.5 {
		t.Errorf("adaboost should beat coin flip on XOR, got %g", acc)
	}
}

// TestFitOnNoRowsResets refits each model on no rows after a fit on XOR
// data: it must then predict as a model never fitted does.
func TestFitOnNoRowsResets(t *testing.T) {
	X, y := xorData(200, 7)
	for _, c := range []struct {
		name       string
		fit, fresh interface {
			Classifier
			Fit(X [][]float64, y []int)
		}
	}{
		{"forest", &RandomForest{Trees: 3, MaxDepth: 4, Seed: 1}, &RandomForest{Trees: 3, MaxDepth: 4, Seed: 1}},
		{"adaboost", &AdaBoost{Rounds: 5}, &AdaBoost{Rounds: 5}},
		{"logistic", &LogisticRegression{Iterations: 20}, &LogisticRegression{Iterations: 20}},
	} {
		c.fit.Fit(X, y)
		c.fit.Fit(nil, nil)
		if !reflect.DeepEqual(c.fit, c.fresh) {
			t.Errorf("%s refit on no rows = %+v, want a fresh model %+v", c.name, c.fit, c.fresh)
		}
		for i, x := range X[:20] {
			if got, want := c.fit.Predict(x), c.fresh.Predict(x); got != want {
				t.Errorf("%s refit on no rows predicts %d on row %d, a fresh model %d", c.name, got, i, want)
			}
		}
	}
}

func TestSentimentLexicon(t *testing.T) {
	s := NewSentimentLexicon()
	cases := []struct {
		text string
		want int
	}{
		{"an excellent and wonderful movie, truly the best", 1},
		{"terrible plot, awful acting, a complete waste", -1},
		{"it was not good", -1},
		{"it was not bad at all, actually great", 1},
		{"completely neutral text about nothing", -1}, // ties break negative
	}
	for _, tc := range cases {
		if got := s.Classify(tc.text); got != tc.want {
			t.Errorf("Classify(%q) = %d, want %d (score %g)", tc.text, got, tc.want, s.Score(tc.text))
		}
	}
}

func TestSentimentScoreAllocations(t *testing.T) {
	s := NewSentimentLexicon()
	review := "An EXCELLENT, wonderful movie with a terrible ending -- isn't it? Not bad overall, but the pacing was dull."
	if n := testing.AllocsPerRun(100, func() { sentimentSink = s.Score(review) }); n != 0 {
		t.Errorf("Score of an ASCII review allocates %v times, want 0", n)
	}
}

// sentimentSink keeps TestSentimentScoreAllocations' scores alive.
var sentimentSink float64

func TestMetrics(t *testing.T) {
	pred := []int{1, 0, 1, 1, 0}
	y := []int{1, 0, 0, 1, 1}
	if got := accuracy(pred, y); got != 0.6 {
		t.Errorf("Accuracy = %g", got)
	}
	if accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestDisparateImpact(t *testing.T) {
	d := dataset.New().
		MustAddCategorical("sex", []string{"F", "F", "F", "F", "M", "M", "M", "M"})
	rows := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Favorable rate: F = 1/4, M = 1 → DI = 0.25.
	pred := []int{1, 0, 0, 0, 1, 1, 1, 1}
	di := DisparateImpact(d, rows, pred, "sex", "F")
	if math.Abs(di-0.25) > 1e-12 {
		t.Errorf("DI = %g, want 0.25", di)
	}
	if m := NormalizedDisparateImpact(di); math.Abs(m-0.75) > 1e-12 {
		t.Errorf("normalized = %g, want 0.75", m)
	}
	// Parity → malfunction 0.
	fair := []int{1, 1, 0, 0, 1, 1, 0, 0}
	if di := DisparateImpact(d, rows, fair, "sex", "F"); di != 1 {
		t.Errorf("fair DI = %g", di)
	}
	if NormalizedDisparateImpact(1) != 0 {
		t.Error("DI=1 should be malfunction 0")
	}
	// Reverse discrimination also scores as malfunction.
	rev := []int{1, 1, 1, 1, 1, 0, 0, 0}
	if m := NormalizedDisparateImpact(DisparateImpact(d, rows, rev, "sex", "F")); m <= 0 {
		t.Error("reverse disparity should be nonzero malfunction")
	}
	if NormalizedDisparateImpact(0) != 1 {
		t.Error("DI=0 should be extreme malfunction")
	}
}

func TestDisparateImpactDegenerate(t *testing.T) {
	d := dataset.New().MustAddCategorical("sex", []string{"F", "F"})
	if di := DisparateImpact(d, []int{0, 1}, []int{1, 1}, "sex", "F"); di != 1 {
		t.Errorf("single-group DI = %g, want 1", di)
	}
	if di := DisparateImpact(d, []int{0, 1}, []int{1, 1}, "missing", "F"); di != 1 {
		t.Errorf("missing attr DI = %g, want 1", di)
	}
}
