package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/synth"
)

func TestCoveringArray2Coverage(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 10, 20, 50} {
		rows := core.CoveringArray2(k)
		if len(rows) == 0 {
			t.Fatalf("k=%d: no rows", k)
		}
		for _, row := range rows {
			if len(row) != k {
				t.Fatalf("k=%d: row width %d", k, len(row))
			}
		}
		if k < 2 {
			continue
		}
		// Every column pair must exhibit all four combinations.
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				var seen [2][2]bool
				for _, row := range rows {
					a, b := 0, 0
					if row[i] {
						a = 1
					}
					if row[j] {
						b = 1
					}
					seen[a][b] = true
				}
				for a := 0; a < 2; a++ {
					for b := 0; b < 2; b++ {
						if !seen[a][b] {
							t.Fatalf("k=%d: pair (%d,%d) missing combination (%d,%d)", k, i, j, a, b)
						}
					}
				}
			}
		}
	}
}

func TestCoveringArray2Logarithmic(t *testing.T) {
	// Strength-2 covering arrays need only O(log k) rows.
	if rows := core.CoveringArray2(100); len(rows) > 20 {
		t.Errorf("k=100 used %d rows, want O(log k)", len(rows))
	}
	if rows := core.CoveringArray2(1000); len(rows) > 24 {
		t.Errorf("k=1000 used %d rows", len(rows))
	}
	if core.CoveringArray2(0) != nil {
		t.Error("k=0 should be nil")
	}
}

// TestDecisionTreeCoveringArrayBootstrap runs the A2-violating AND-gate
// system with NO example datasets: the covering-array bootstrap alone must
// supply enough training signal for the decision tree to find the {X1, X2}
// conjunction.
func TestDecisionTreeCoveringArrayBootstrap(t *testing.T) {
	const k = 6
	sc := synth.New(synth.Options{NumPVTs: k, NumAttrs: 1, Seed: 51})
	profiles := make([]*synth.Profile, k)
	for i, p := range sc.PVTs {
		profiles[i] = p.Profile.(*synth.Profile)
	}
	sys := &pipeline.Func{SystemName: "and-gate", Score: func(d *dataset.Dataset) float64 {
		if profiles[0].Violation(d) == 0 && profiles[1].Violation(d) == 0 {
			return 0
		}
		return 0.9
	}}
	fail := synth.FailingDataset(k)
	e := &core.Explainer{System: sys, Tau: 0.1, Seed: 51, BootstrapCoveringArray: true}
	res, err := e.ExplainWithDecisionTreePVTsContext(context.Background(), sc.PVTs, nil, fail)
	if err != nil {
		t.Fatalf("bootstrap decision tree failed: %v", err)
	}
	if len(res.Explanation) != 2 || !containsIndex(res.Explanation, 0) || !containsIndex(res.Explanation, 1) {
		t.Errorf("explanation = %s, want {X1, X2}", res.ExplanationString())
	}
}
