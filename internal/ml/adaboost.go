package ml

import (
	"math"
	"sort"
)

// stump is a one-feature threshold weak learner with a polarity.
type stump struct {
	feature   int
	threshold float64
	// polarity +1 predicts class 1 when x > threshold; -1 the opposite.
	polarity int
	alpha    float64
}

func (s *stump) predict(x []float64) int {
	above := x[s.feature] > s.threshold
	if (above && s.polarity > 0) || (!above && s.polarity < 0) {
		return 1
	}
	return 0
}

// AdaBoost is a discrete AdaBoost ensemble of decision stumps — the
// Cardiovascular Disease Prediction case study's classifier.
type AdaBoost struct {
	// Rounds is the number of boosting rounds (default 50).
	Rounds int

	stumps []stump
}

// Fit trains the ensemble on a feature matrix and binary labels.
func (a *AdaBoost) Fit(X [][]float64, y []int) {
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

// Predict implements Classifier by the weighted vote of the stumps.
func (a *AdaBoost) Predict(x []float64) int {
	score := 0.0
	for _, s := range a.stumps {
		vote := -1.0
		if s.predict(x) == 1 {
			vote = 1.0
		}
		score += s.alpha * vote
	}
	if score >= 0 {
		return 1
	}
	return 0
}
