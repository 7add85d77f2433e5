package ml

import "testing"

func BenchmarkLogisticFit(b *testing.B) {
	X, y := linearlySeparable(1000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &LogisticRegression{Iterations: 100}
		m.Fit(X, y)
	}
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	X, y := xorData(1000, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fitTree(&DecisionTree{MaxDepth: 6}, X, y)
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	X, y := xorData(1000, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := &RandomForest{Trees: 10, MaxDepth: 5, MTry: 2, Seed: 7}
		f.Fit(X, y)
	}
}

func BenchmarkAdaBoostFit(b *testing.B) {
	X, y := linearlySeparable(1000, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := &AdaBoost{Rounds: 30}
		a.Fit(X, y)
	}
}

func BenchmarkSentimentScore(b *testing.B) {
	s := NewSentimentLexicon()
	text := "an excellent and wonderful movie with a terrible ending, not bad overall but the pacing was dull"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Score(text)
	}
}
