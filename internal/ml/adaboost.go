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

// Fit trains the ensemble on a feature matrix and binary (0 or 1) labels,
// replacing any earlier one; on no rows it leaves none.
func (a *AdaBoost) Fit(X [][]float64, y []int) {
	// The reset stays out of fit, whose inner loops are sensitive to where
	// they fall in the binary: with it inside fit, prism-bench's Cardio
	// set-up ran about 10% slower.
	a.stumps = nil
	a.fit(X, y)
}

// fit trains the ensemble.
//
// Every round picks the stump, over each feature's candidate thresholds
// and both polarities, with the least weighted error. A stump's error is
// the sum of the weights of the rows it misclassifies, added in row order,
// so every error, alpha and weight has the bits a row-by-row evaluation of
// each stump gives: a sum in another order could round differently and
// pick another stump. One pass over the rows per feature adds each row's
// weight to every threshold's error of the polarity that misclassifies it.
func (a *AdaBoost) fit(X [][]float64, y []int) {
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
	// Candidate thresholds per feature. A feature's list is some NaNs, then
	// ascending numbers, so the thresholds a value x lies above (x > t) are
	// a range: above[j][i] ends the range of row i, which starts after the
	// leading NaNs, lead[j].
	thresholds := make([][]float64, d)
	lead := make([]int, d)
	above := make([][]uint8, d)
	vals := make([]float64, n)
	for j := 0; j < d; j++ {
		for i, x := range X {
			vals[i] = x[j]
		}
		thr := stumpThresholds(vals)
		for lead[j] < len(thr) && math.IsNaN(thr[lead[j]]) {
			lead[j]++
		}
		above[j] = make([]uint8, n)
		for i, x := range X {
			k := lead[j]
			for k < len(thr) && x[j] > thr[k] {
				k++
			}
			above[j][i] = uint8(k)
		}
		thresholds[j] = thr
	}
	// errs[k] and errs[maxThresholds+k]: the weighted errors of polarity +1
	// and -1 at a feature's k-th threshold.
	var errs [2 * maxThresholds]float64
	a.stumps = nil
	for round := 0; round < a.Rounds; round++ {
		best := stump{feature: -1}
		bestErr := math.Inf(1)
		for j := 0; j < d; j++ {
			thr := thresholds[j]
			pos, neg := errs[:len(thr)], errs[maxThresholds:maxThresholds+len(thr)]
			clear(pos)
			clear(neg)
			for i, hi := range above[j] {
				wi := w[i]
				// Above its threshold polarity +1 predicts 1, so it misclassifies
				// a class-0 row there and a class-1 row elsewhere; -1 is the
				// complement.
				in, out := pos, neg
				if y[i] != 0 {
					in, out = neg, pos
				}
				for k := range out[:lead[j]] {
					out[k] += wi
				}
				for k := lead[j]; k < int(hi); k++ {
					in[k] += wi
				}
				for k := int(hi); k < len(out); k++ {
					out[k] += wi
				}
			}
			for k, t := range thr {
				if pos[k] < bestErr {
					bestErr = pos[k]
					best = stump{feature: j, threshold: t, polarity: 1}
				}
				if neg[k] < bestErr {
					bestErr = neg[k]
					best = stump{feature: j, threshold: t, polarity: -1}
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

// stumpThresholds sorts vals and returns the midpoints between its
// consecutive distinct values, subsampled to maxThresholds by quantile.
func stumpThresholds(vals []float64) []float64 {
	sort.Float64s(vals)
	var mids []float64
	for i := 1; i < len(vals); i++ {
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
	return mids
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
