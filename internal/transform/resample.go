package transform

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// Resample repairs a Selectivity violation by under-sampling the tuples that
// satisfy the predicate when its selectivity exceeds θ (Figure 1 row 6), and
// by over-sampling them when it falls short — the direction the paper's
// running example uses to restore the share of female high spenders.
type Resample struct {
	Profile *profile.Selectivity
}

// Name implements Transformation.
func (t *Resample) Name() string { return "resample" }

// Target implements Transformation.
func (t *Resample) Target() profile.Profile { return t.Profile }

// Modifies implements Transformation: resampling touches the predicate's
// attributes (through row multiplicity).
func (t *Resample) Modifies() []string { return t.Profile.Pred.Attributes() }

// Apply implements Transformation. The transformed dataset has a different
// row count: matching rows are dropped (uniformly at random) or duplicated
// (round-robin) until their share equals θ.
func (t *Resample) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	mask := t.Profile.Pred.Mask(d, nil)
	var match []int
	for r, ok := range mask {
		if ok {
			match = append(match, r)
		}
	}
	m := len(match)
	n := d.NumRows()
	nonMatch := n - m
	theta := t.Profile.Theta
	cur := 0.0
	if n > 0 {
		cur = float64(m) / float64(n)
	}
	switch {
	case n == 0 || math.Abs(cur-theta) < 1e-12:
		return d.Clone(), nil
	case theta >= 1:
		if m == 0 {
			return nil, fmt.Errorf("transform: cannot reach selectivity 1 for %s with no matching tuples", t.Profile.Pred)
		}
		return d.SelectRows(match), nil
	case theta <= 0:
		return d.Filter(func(r int) bool { return !mask[r] }), nil
	case cur > theta:
		// Under-sample matches: keep k with k/(k+nonMatch) = θ.
		k := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		if k > m {
			k = m
		}
		perm := rng.Perm(m)
		keep := make(map[int]bool, k)
		for _, pi := range perm[:k] {
			keep[match[pi]] = true
		}
		return d.Filter(func(r int) bool {
			return !mask[r] || keep[r]
		}), nil
	default:
		// Over-sample matches: total matches m' with m'/(m'+nonMatch) = θ.
		if m == 0 {
			return nil, fmt.Errorf("transform: cannot raise selectivity of %s from zero", t.Profile.Pred)
		}
		target := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		idx := make([]int, 0, n+target-m)
		for r := 0; r < n; r++ {
			idx = append(idx, r)
		}
		for extra := 0; extra < target-m; extra++ {
			idx = append(idx, match[extra%m])
		}
		return d.SelectRows(idx), nil
	}
}

// Coverage implements Transformation: the fraction of rows added or removed
// relative to the original size.
func (t *Resample) Coverage(d *dataset.Dataset) float64 {
	n := d.NumRows()
	if n == 0 {
		return 0
	}
	m := t.Profile.Pred.Count(d)
	nonMatch := n - m
	theta := t.Profile.Theta
	var target float64
	if theta >= 1 {
		target = float64(m) // all non-matching rows removed
		return float64(nonMatch) / float64(n)
	}
	target = theta * float64(nonMatch) / (1 - theta)
	return math.Abs(target-float64(m)) / float64(n)
}
