package ml

import (
	"math"
)

// LogisticRegression is a binary logistic-regression classifier trained by
// full-batch gradient descent with L2 regularization — the classifier of
// the paper's running example (Example 1).
type LogisticRegression struct {
	// Iterations is the number of gradient steps (default 200).
	Iterations int

	weights []float64
	bias    float64
	// feature standardization learned during Fit
	means, scales []float64
}

// The gradient-descent step size and the ridge penalty of
// LogisticRegression.
const (
	learningRate = 0.1
	l2           = 1e-3
)

// fillDefaults applies the documented defaults for zero-valued fields.
func (m *LogisticRegression) fillDefaults() {
	if m.Iterations == 0 {
		m.Iterations = 200
	}
}

// Fit trains the model on a feature matrix and binary labels.
func (m *LogisticRegression) Fit(X [][]float64, y []int) {
	m.fillDefaults()
	m.weights, m.bias, m.means, m.scales = nil, 0, nil, nil
	if len(X) == 0 {
		return
	}
	n, d := len(X), len(X[0])
	m.means = make([]float64, d)
	m.scales = make([]float64, d)
	for j := 0; j < d; j++ {
		s, ss := 0.0, 0.0
		for i := 0; i < n; i++ {
			s += X[i][j]
		}
		mean := s / float64(n)
		for i := 0; i < n; i++ {
			dv := X[i][j] - mean
			ss += dv * dv
		}
		sd := math.Sqrt(ss / float64(n))
		if sd == 0 {
			sd = 1
		}
		m.means[j], m.scales[j] = mean, sd
	}
	Z := make([][]float64, n)
	for i := range X {
		Z[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			Z[i][j] = (X[i][j] - m.means[j]) / m.scales[j]
		}
	}
	m.weights = make([]float64, d)
	grad := make([]float64, d)
	for it := 0; it < m.Iterations; it++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			p := m.prob(Z[i])
			err := p - float64(y[i])
			for j := 0; j < d; j++ {
				grad[j] += err * Z[i][j]
			}
			gb += err
		}
		inv := 1 / float64(n)
		for j := 0; j < d; j++ {
			m.weights[j] -= learningRate * (grad[j]*inv + l2*m.weights[j])
		}
		m.bias -= learningRate * gb * inv
	}
}

// prob returns P(y=1) for an already-standardized feature vector.
func (m *LogisticRegression) prob(z []float64) float64 {
	s := m.bias
	for j, w := range m.weights {
		s += w * z[j]
	}
	return 1 / (1 + math.Exp(-s))
}

// Prob returns P(y=1) for a raw feature vector.
func (m *LogisticRegression) Prob(x []float64) float64 {
	if m.weights == nil {
		return 0.5
	}
	z := make([]float64, len(x))
	for j := range x {
		if j < len(m.means) {
			z[j] = (x[j] - m.means[j]) / m.scales[j]
		}
	}
	return m.prob(z)
}

// Predict implements Classifier.
func (m *LogisticRegression) Predict(x []float64) int {
	if m.Prob(x) >= 0.5 {
		return 1
	}
	return 0
}
