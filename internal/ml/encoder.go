// Package ml is the from-scratch machine-learning substrate for the systems
// DataPrism debugs. It stands in for the scikit-learn / flair models of the
// paper's case studies with stdlib-only implementations: logistic
// regression, CART decision trees, random forests, AdaBoost, and a lexicon
// sentiment scorer, plus the fairness metric the Income case study uses as
// its malfunction score.
//
// The systems built on this package are black boxes to DataPrism — only
// their malfunction score's response to data interventions matters, which
// these implementations exhibit the same way the originals do.
package ml

import (
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Encoder turns dataset rows into dense numeric feature vectors. Feature
// specs (categorical levels, numeric means for NULL imputation) are learned
// from a training dataset so encoding is stable across datasets: unseen
// categorical levels encode to the zero vector of their block.
type Encoder struct {
	specs    []featureSpec
	label    string
	positive string // positive-class value for string labels
	width    int
}

type featureSpec struct {
	attr    string
	numeric bool
	mean    float64        // numeric: NULL imputation value
	levels  []string       // categorical: one-hot level order
	index   map[string]int // categorical: level -> offset
	offset  int            // start position in the feature vector
}

// NewEncoder learns an encoder from train for the given feature attributes
// and label attribute. A string label uses positive as the class-1 value; a
// numeric label treats values > 0.5 as class 1.
func NewEncoder(train *dataset.Dataset, features []string, label, positive string) (*Encoder, error) {
	e := &Encoder{label: label, positive: positive}
	for _, attr := range features {
		c := train.Column(attr)
		if c == nil {
			return nil, fmt.Errorf("ml: feature attribute %q not found", attr)
		}
		spec := featureSpec{attr: attr, offset: e.width}
		if c.Kind == dataset.Numeric {
			spec.numeric = true
			spec.mean = numericMean(c)
			if math.IsNaN(spec.mean) {
				spec.mean = 0
			}
			e.width++
		} else {
			spec.levels = train.DistinctStrings(attr)
			spec.index = make(map[string]int, len(spec.levels))
			for i, l := range spec.levels {
				spec.index[l] = i
			}
			e.width += len(spec.levels)
		}
		e.specs = append(e.specs, spec)
	}
	if train.Column(label) == nil {
		return nil, fmt.Errorf("ml: label attribute %q not found", label)
	}
	return e, nil
}

// numericMean returns the mean of c's non-NULL cells, or NaN when there
// are none. It adds the cells in row order, as stats.Mean adds
// Dataset.NumericValues', so the two give the same bits.
func numericMean(c *dataset.Column) float64 {
	s, n := 0.0, 0
	for k := 0; k < c.NumChunks(); k++ {
		ch := c.Chunk(k)
		for i, x := range ch.Nums {
			if !ch.Null[i] {
				s += x
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// Encode converts d into a feature matrix and label vector, skipping rows
// with a NULL label. rows[i] is the dataset row behind X[i] and y[i], for
// joining predictions back to the dataset (e.g. group fairness metrics).
// The dataset must contain all encoder attributes. The rows of X share one
// backing array.
func (e *Encoder) Encode(d *dataset.Dataset) (X [][]float64, y, rows []int, err error) {
	n := 0
	if lc := d.Column(e.label); lc != nil {
		for r := 0; r < d.NumRows(); r++ {
			if !lc.NullAt(r) {
				n++
			}
		}
	}
	cells := make([]float64, n*e.width)
	X, y, rows = make([][]float64, n), make([]int, n), make([]int, n)
	i := 0
	err = e.EncodeEach(d, func(x []float64, cls, r int) {
		X[i] = cells[i*e.width : (i+1)*e.width : (i+1)*e.width]
		copy(X[i], x)
		y[i], rows[i] = cls, r
		i++
	})
	if err != nil || n == 0 {
		return nil, nil, nil, err
	}
	return X, y, rows, nil
}

// EncodeEach calls fn for every row of d with a non-NULL label, in row
// order, with the row's feature vector, class and dataset row. Every call
// gets the same vector, overwritten for each row, so fn must copy what it
// keeps. It returns Encode's errors.
func (e *Encoder) EncodeEach(d *dataset.Dataset, fn func(x []float64, y, row int)) error {
	lc := d.Column(e.label)
	if lc == nil {
		return fmt.Errorf("ml: label attribute %q not found", e.label)
	}
	cols := make([]*dataset.Column, len(e.specs))
	for k, s := range e.specs {
		if cols[k] = d.Column(s.attr); cols[k] == nil {
			return fmt.Errorf("ml: feature attribute %q not found", s.attr)
		}
	}
	var x []float64
	for r := 0; r < d.NumRows(); r++ {
		if lc.NullAt(r) {
			continue
		}
		if x == nil {
			// A column that changed kind is an error only when a row is
			// encoded.
			for k, s := range e.specs {
				if s.numeric != (cols[k].Kind == dataset.Numeric) {
					return fmt.Errorf("ml: attribute %q changed kind", s.attr)
				}
			}
			x = make([]float64, e.width)
		} else {
			clear(x)
		}
		for k, s := range e.specs {
			c := cols[k]
			switch {
			case s.numeric && c.NullAt(r):
				x[s.offset] = s.mean
			case s.numeric:
				x[s.offset] = c.NumAt(r)
			case !c.NullAt(r):
				if l, ok := s.index[c.StrAt(r)]; ok {
					x[s.offset+l] = 1
				}
			}
		}
		cls := 0
		if lc.Kind == dataset.Numeric {
			if lc.NumAt(r) > 0.5 {
				cls = 1
			}
		} else if lc.StrAt(r) == e.positive {
			cls = 1
		}
		fn(x, cls, r)
	}
	return nil
}

// Classifier is a trained binary classifier over encoded feature vectors.
type Classifier interface {
	// Predict returns the class (0 or 1) for a feature vector.
	Predict(x []float64) int
}

// PredictAll applies a classifier to every row of a feature matrix.
func PredictAll(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}
