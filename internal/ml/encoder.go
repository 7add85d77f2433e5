// Package ml is the from-scratch machine-learning substrate for the systems
// DataPrism debugs. It stands in for the scikit-learn / flair models of the
// paper's case studies with stdlib-only implementations: logistic
// regression, CART decision trees, random forests, AdaBoost, and a lexicon
// sentiment scorer, plus the fairness and accuracy metrics the case studies
// use as malfunction scores.
//
// The systems built on this package are black boxes to DataPrism — only
// their malfunction score's response to data interventions matters, which
// these implementations exhibit the same way the originals do.
package ml

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
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
			spec.mean = stats.Mean(train.NumericValues(attr))
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

// Encode converts d into a feature matrix and label vector, skipping rows
// with a NULL label. rows[i] is the dataset row behind X[i] and y[i], for
// joining predictions back to the dataset (e.g. group fairness metrics).
// The dataset must contain all encoder attributes. The rows of X share one
// backing array.
func (e *Encoder) Encode(d *dataset.Dataset) (X [][]float64, y, rows []int, err error) {
	lc := d.Column(e.label)
	if lc == nil {
		return nil, nil, nil, fmt.Errorf("ml: label attribute %q not found", e.label)
	}
	cols := make([]*dataset.Column, len(e.specs))
	for k, s := range e.specs {
		if cols[k] = d.Column(s.attr); cols[k] == nil {
			return nil, nil, nil, fmt.Errorf("ml: feature attribute %q not found", s.attr)
		}
	}
	n := 0
	for r := 0; r < d.NumRows(); r++ {
		if !lc.NullAt(r) {
			n++
		}
	}
	if n == 0 {
		return nil, nil, nil, nil
	}
	// A column that changed kind is an error only when a row is encoded.
	for k, s := range e.specs {
		if s.numeric != (cols[k].Kind == dataset.Numeric) {
			return nil, nil, nil, fmt.Errorf("ml: attribute %q changed kind", s.attr)
		}
	}
	cells := make([]float64, n*e.width)
	X = make([][]float64, n)
	y = make([]int, n)
	rows = make([]int, n)
	i := 0
	for r := 0; r < d.NumRows(); r++ {
		if lc.NullAt(r) {
			continue
		}
		x := cells[i*e.width : (i+1)*e.width : (i+1)*e.width]
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
		X[i] = x
		if lc.Kind == dataset.Numeric {
			if lc.NumAt(r) > 0.5 {
				y[i] = 1
			}
		} else if lc.StrAt(r) == e.positive {
			y[i] = 1
		}
		rows[i] = r
		i++
	}
	return X, y, rows, nil
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
