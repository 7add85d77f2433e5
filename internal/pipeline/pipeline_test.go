package pipeline

import (
	"testing"

	"repro/internal/dataset"
)

func constSystem(score float64) System {
	return &Func{SystemName: "const", Score: func(*dataset.Dataset) float64 { return score }}
}

func TestFuncAdapter(t *testing.T) {
	sys := constSystem(0.42)
	if sys.Name() != "const" {
		t.Errorf("Name = %q", sys.Name())
	}
	if got := sys.MalfunctionScore(dataset.New()); got != 0.42 {
		t.Errorf("score = %g", got)
	}
}
