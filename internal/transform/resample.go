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

// Modifies implements Transformation: resampling touches the predicate's
// attributes (through row multiplicity).
func (t *Resample) Modifies() []string { return t.Profile.Pred.Attributes() }

// Apply implements Transformation. The transformed dataset has a different
// row count: matching rows are dropped (uniformly at random) or duplicated
// (round-robin) until their share equals θ.
func (t *Resample) Apply(d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	return applyRows(t, d, rng)
}

// Rows returns the rows of d that Apply's output consists of, in order,
// when the rows sel of d (nil: every row) are its input; same reports that
// the output is the input unchanged. The predicate is evaluated once over
// d and read through sel, and rng is drawn as Apply draws it on
// d.SelectRows(sel), so d.SelectRows(rows) equals that Apply's output.
func (t *Resample) Rows(d *dataset.Dataset, sel []int, rng *rand.Rand) (rows []int, same bool, err error) {
	mask := t.Profile.Pred.Mask(d, nil)
	n := inputLen(d, sel)
	m := 0
	for j := 0; j < n; j++ {
		if mask[rowAt(sel, j)] {
			m++
		}
	}
	nonMatch := n - m
	theta := t.Profile.Theta
	cur := 0.0
	if n > 0 {
		cur = float64(m) / float64(n)
	}
	switch {
	case n == 0 || math.Abs(cur-theta) < 1e-12:
		return sel, true, nil
	case theta >= 1:
		if m == 0 {
			return nil, false, fmt.Errorf("transform: cannot reach selectivity 1 for %s with no matching tuples", t.Profile.Pred)
		}
		return filterRows(sel, n, m, func(r int) bool { return mask[r] }), false, nil
	case theta <= 0:
		return filterRows(sel, n, nonMatch, func(r int) bool { return !mask[r] }), false, nil
	case cur > theta:
		// Under-sample matches: keep k with k/(k+nonMatch) = θ. keep is
		// indexed by a match's ordinal among the input's matches.
		k := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		if k > m {
			k = m
		}
		keep := make([]bool, m)
		for _, pi := range rng.Perm(m)[:k] {
			keep[pi] = true
		}
		ord := 0
		return filterRows(sel, n, nonMatch+k, func(r int) bool {
			if !mask[r] {
				return true
			}
			ord++
			return keep[ord-1]
		}), false, nil
	default:
		// Over-sample matches: total matches m' with m'/(m'+nonMatch) = θ.
		if m == 0 {
			return nil, false, fmt.Errorf("transform: cannot raise selectivity of %s from zero", t.Profile.Pred)
		}
		target := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		rows = make([]int, n, n+max(target-m, 0))
		match := make([]int, 0, m)
		for j := range rows {
			r := rowAt(sel, j)
			rows[j] = r
			if mask[r] {
				match = append(match, r)
			}
		}
		for extra := 0; extra < target-m; extra++ {
			rows = append(rows, match[extra%m])
		}
		return rows, false, nil
	}
}

// filterRows returns the input rows (the rows sel of a dataset, or its
// first n rows when sel is nil) for which keep reports true, in order; keep
// sees each row once. size is the expected count.
func filterRows(sel []int, n, size int, keep func(r int) bool) []int {
	rows := make([]int, 0, size)
	for j := 0; j < n; j++ {
		if r := rowAt(sel, j); keep(r) {
			rows = append(rows, r)
		}
	}
	return rows
}

// inputLen is the number of input rows: len(sel), or every row of d when
// sel is nil.
func inputLen(d *dataset.Dataset, sel []int) int {
	if sel == nil {
		return d.NumRows()
	}
	return len(sel)
}

// rowAt is the row of the dataset at input position j.
func rowAt(sel []int, j int) int {
	if sel == nil {
		return j
	}
	return sel[j]
}

// rowSelector is a transformation whose output is a selection of its
// input's rows (Resample, Deduplicate).
type rowSelector interface {
	Rows(d *dataset.Dataset, sel []int, rng *rand.Rand) (rows []int, same bool, err error)
}

// applyRows is a row selector's Apply: Rows over every row of d, gathered
// into one dataset.
func applyRows(t rowSelector, d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
	rows, same, err := t.Rows(d, nil, rng)
	if err != nil {
		return nil, err
	}
	if same {
		return d.Clone(), nil
	}
	return d.SelectRows(rows), nil
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
