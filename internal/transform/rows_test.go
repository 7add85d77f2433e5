package transform

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// resampleApplyRef is Resample.Apply before it became Rows plus one
// SelectRows: a map of kept match rows and a Filter per call.
func resampleApplyRef(t *Resample, d *dataset.Dataset, rng *rand.Rand) (*dataset.Dataset, error) {
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
			return nil, fmt.Errorf("no matching tuples")
		}
		return d.SelectRows(match), nil
	case theta <= 0:
		return d.Filter(func(r int) bool { return !mask[r] }), nil
	case cur > theta:
		k := int(math.Round(theta * float64(nonMatch) / (1 - theta)))
		if k > m {
			k = m
		}
		perm := rng.Perm(m)
		keep := make(map[int]bool, k)
		for _, pi := range perm[:k] {
			keep[match[pi]] = true
		}
		return d.Filter(func(r int) bool { return !mask[r] || keep[r] }), nil
	default:
		if m == 0 {
			return nil, fmt.Errorf("zero selectivity")
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

// deduplicateApplyRef is Deduplicate.Apply before Rows: keys spelled by
// strconv, one Filter per call.
func deduplicateApplyRef(t *Deduplicate, d *dataset.Dataset) (*dataset.Dataset, error) {
	c := d.Column(t.Profile.Attr)
	if c == nil {
		return nil, fmt.Errorf("no column")
	}
	seen := make(map[string]bool, d.NumRows())
	return d.Filter(func(r int) bool {
		if c.NullAt(r) {
			return true
		}
		var key string
		if c.Kind == dataset.Numeric {
			key = strconv.FormatFloat(c.NumAt(r), 'g', -1, 64)
		} else {
			key = c.StrAt(r)
		}
		if seen[key] {
			return false
		}
		seen[key] = true
		return true
	}), nil
}

// rowsFixture is a dataset with a three-valued categorical column, NULLs,
// and a numeric column with repeats, NaNs of two payloads and signed zeros.
func rowsFixture(rng *rand.Rand, rows, csize int) *dataset.Dataset {
	g := make([]string, rows)
	v := make([]float64, rows)
	gNull := make([]bool, rows)
	vNull := make([]bool, rows)
	for i := range g {
		g[i] = string(rune('a' + rng.Intn(3)))
		switch rng.Intn(7) {
		case 0:
			v[i] = math.NaN()
		case 6:
			v[i] = math.Float64frombits(0xfff8000000000000) // a NaN with another payload
		case 1:
			v[i] = math.Copysign(0, -1)
		case 2:
			v[i] = 0
		default:
			v[i] = float64(rng.Intn(rows + 1))
		}
		gNull[i] = rng.Intn(9) == 0
		vNull[i] = rng.Intn(9) == 0
	}
	d := dataset.NewChunked(csize)
	if err := d.AddCategoricalColumn("g", g, gNull); err != nil {
		panic(err)
	}
	if err := d.AddNumericColumn("v", v, vNull); err != nil {
		panic(err)
	}
	return d
}

// TestRowSelectorsMatchReference pins Resample and Deduplicate to the
// Apply each had before Rows, and Rows over a selection to Apply over the
// selected rows: same datasets, same errors, same next rng draw.
func TestRowSelectorsMatchReference(t *testing.T) {
	thetas := []float64{0, 1, 0.05, 0.2, 1.0 / 3, 0.5, 0.8, 0.95}
	for trial := 0; trial < 300; trial++ {
		src := rand.New(rand.NewSource(int64(trial)))
		d := rowsFixture(src, src.Intn(120), 1+src.Intn(16))
		sel := make([]int, src.Intn(2*d.NumRows()+1))
		for i := range sel {
			sel[i] = src.Intn(d.NumRows())
		}
		var sels []int // a selection with repeats, or none when d is empty
		if d.NumRows() > 0 {
			sels = sel
		}
		pred := dataset.And(dataset.EqStr("g", string(rune('a'+src.Intn(4)))))
		if src.Intn(3) == 0 {
			pred = dataset.And(pred.Clauses[0], dataset.Clause{Attr: "v", Op: dataset.Lt, NumVal: float64(src.Intn(60)), IsNum: true})
		}
		theta := thetas[src.Intn(len(thetas))]
		if src.Intn(4) == 0 {
			theta = pred.Selectivity(d) // the current share
		}
		res := &Resample{Profile: &profile.Selectivity{Pred: pred, Theta: theta}}
		ded := &Deduplicate{Profile: &profile.Unique{Attr: []string{"g", "v"}[src.Intn(2)]}}
		label := fmt.Sprintf("trial %d (%s θ=%g, dedup %s)", trial, pred, theta, ded.Profile.Attr)

		for _, in := range []*dataset.Dataset{d, d.SelectRows(sels)} {
			r1, r2 := rand.New(rand.NewSource(int64(trial))), rand.New(rand.NewSource(int64(trial)))
			want, wantErr := resampleApplyRef(res, in, r1)
			got, gotErr := res.Apply(in, r2)
			sameOutput(t, label+" resample", want, got, wantErr, gotErr, r1, r2)
			want, wantErr = deduplicateApplyRef(ded, in)
			got, gotErr = ded.Apply(in, r2)
			sameOutput(t, label+" deduplicate", want, got, wantErr, gotErr, r1, r2)
		}

		// Rows over a selection of d equals Apply over the selected rows.
		for _, s := range []Transformation{res, ded} {
			r1, r2 := rand.New(rand.NewSource(int64(trial))), rand.New(rand.NewSource(int64(trial)))
			want, wantErr := s.Apply(d.SelectRows(sels), r1)
			rows, same, gotErr := s.(rowSelector).Rows(d, sels, r2)
			var got *dataset.Dataset
			if gotErr == nil {
				if same {
					rows = sels
				}
				got = d.SelectRows(rows)
			}
			sameOutput(t, label+" rows "+s.Name(), want, got, wantErr, gotErr, r1, r2)
		}
	}
}

func sameOutput(t *testing.T, label string, want, got *dataset.Dataset, wantErr, gotErr error, r1, r2 *rand.Rand) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if wantErr == nil && (!want.Equal(got) || !got.Equal(want) || want.Fingerprint() != got.Fingerprint()) {
		t.Fatalf("%s: %d rows, reference %d rows", label, got.NumRows(), want.NumRows())
	}
	if a, b := r1.Int63(), r2.Int63(); a != b {
		t.Fatalf("%s: next rng draw %d, reference %d", label, b, a)
	}
}
