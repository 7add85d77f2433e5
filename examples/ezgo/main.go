// Command ezgo reproduces Example 2 of the paper: the EZGo toll-collection
// pipeline reserves a fixed time budget per batch of vehicles, but its
// external OCR is pathologically slow on black license plates photographed
// in low illumination. A batch with a skewed share of such vehicles blows
// the deadline. DataPrism exposes the skew — a Selectivity profile — as the
// causally verified root cause, with under-sampling as the fix.
package main

import (
	"context"
	"fmt"

	dataprism "repro"
	"repro/internal/dataset"
	"repro/internal/workload"
)

func main() {
	sc := workload.NewEZGoScenario(1000, 1)
	fmt.Println("=== Example 2: EZGo batch process timeout ===")
	fmt.Printf("passing batch:  overrun score %.3f\n", sc.System.MalfunctionScore(sc.Pass))
	fmt.Printf("failing batch:  overrun score %.3f\n", sc.System.MalfunctionScore(sc.Fail))
	fmt.Printf("threshold tau = %.2f\n\n", sc.Tau)

	hard := dataset.And(
		dataset.EqStr("plate_color", "black"),
		dataset.EqStr("illumination", "low"),
	)
	fmt.Printf("hard-case share (black plate ∧ low light): pass %.1f%%, fail %.1f%%\n\n",
		100*hard.Selectivity(sc.Pass), 100*hard.Selectivity(sc.Fail))

	e := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 1}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(sc.Pass, sc.Fail), sc.Fail)
	if err != nil {
		fmt.Println("no explanation found:", err)
		return
	}
	fmt.Printf("DataPrismGRD: %d interventions over %d candidates\n", res.Interventions, res.Discriminative)
	fmt.Printf("minimal explanation: %s\n", res.ExplanationString())
	fmt.Printf("overrun after repair: %.3f\n", res.FinalScore)
	if res.Transformed != nil {
		fmt.Printf("hard-case share after repair: %.1f%% (%d vehicles rerouted)\n",
			100*hard.Selectivity(res.Transformed), sc.Fail.NumRows()-res.Transformed.NumRows())
	}
}
