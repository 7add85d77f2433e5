// Command cardio reproduces case study 3 (Section 5.1): a cardiovascular
// disease predictor pretrained on centimeter heights receives a dataset
// with heights in inches, collapsing recall. DataPrism exposes the numeric
// Domain profile of height and fixes it with a monotonic linear
// transformation — the unit conversion — restoring recall.
package main

import (
	"context"
	"errors"
	"fmt"

	dataprism "repro"
	"repro/internal/workload"
)

func main() {
	sc := workload.NewCardioScenario(1500, 4)
	fmt.Println("=== Case study: Cardiovascular Disease Prediction ===")
	fmt.Printf("passing dataset:  1-recall = %.3f\n", sc.System.MalfunctionScore(sc.Pass))
	fmt.Printf("failing dataset:  1-recall = %.3f\n", sc.System.MalfunctionScore(sc.Fail))
	fmt.Printf("threshold tau = %.2f\n\n", sc.Tau)

	fr, pr := sc.Fail.Rollup("height"), sc.Pass.Rollup("height")
	fmt.Printf("height range, failing: [%.1f, %.1f] (inches!)\n", fr.Min(), fr.Max())
	fmt.Printf("height range, passing: [%.1f, %.1f] (cm)\n\n", pr.Min(), pr.Max())

	e := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 4}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(sc.Pass, sc.Fail), sc.Fail)
	if err != nil {
		fmt.Println("GRD: no explanation found:", err)
		return
	}
	fmt.Printf("DataPrismGRD: %d interventions → %s\n", res.Interventions, res.ExplanationString())
	if res.Transformed != nil {
		r := res.Transformed.Rollup("height")
		fmt.Printf("height range after fix: [%.1f, %.1f]\n", r.Min(), r.Max())
	}
	fmt.Printf("malfunction after fix: %.3f\n\n", res.FinalScore)

	// Group testing is fragile here: the failing dataset also carries a
	// spurious weight–pressure dependence whose noise-based repair hurts
	// the classifier (assumption A3 is violated; the paper reports NA).
	gt := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 4}
	gres, gerr := gt.ExplainGroupTestPVTsContext(context.Background(), gt.Candidates(sc.Pass, sc.Fail), sc.Fail)
	switch {
	case errors.Is(gerr, dataprism.ErrNoExplanation):
		fmt.Println("DataPrismGT: NA — the composed group interventions never verified (A3 violated), as the paper reports")
	case gerr != nil:
		fmt.Println("DataPrismGT error:", gerr)
	default:
		fmt.Printf("DataPrismGT: %d interventions → %s (the make-minimal pass discarded the harmful PVTs)\n",
			gres.Interventions, gres.ExplanationString())
	}
}
