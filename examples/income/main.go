// Command income reproduces case study 2 (Section 5.1): a fairness-aware
// income-prediction pipeline whose failing dataset carries an injected
// dependence between the income label and sex. DataPrism exposes an Indep
// profile involving the target as the root cause; the fix intervenes on the
// target attribute, breaking its dependence on every other attribute at
// once — which is why a single intervention suffices.
package main

import (
	"context"
	"fmt"

	dataprism "repro"
	"repro/internal/workload"
)

func main() {
	sc := workload.NewIncomeScenario(1500, 2)
	fmt.Println("=== Case study: Income Prediction (fairness) ===")
	fmt.Printf("passing dataset:  normalized disparate impact %.3f\n", sc.System.MalfunctionScore(sc.Pass))
	fmt.Printf("failing dataset:  normalized disparate impact %.3f\n", sc.System.MalfunctionScore(sc.Fail))
	fmt.Printf("threshold tau = %.2f\n\n", sc.Tau)

	pvts := dataprism.DiscoverPVTs(sc.Pass, sc.Fail, sc.Options)
	fmt.Printf("discriminative PVT candidates: %d\n", len(pvts))
	// Attribute degrees in the PVT-attribute graph drive prioritization.
	degree := map[string]int{}
	for _, p := range pvts {
		for _, a := range p.Attributes() {
			degree[a]++
		}
	}
	fmt.Println("attribute degrees in the PVT-attribute graph:")
	for _, a := range sc.Fail.ColumnNames() {
		fmt.Printf("  %-12s %d\n", a, degree[a])
	}

	e := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 2}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(sc.Pass, sc.Fail), sc.Fail)
	if err != nil {
		fmt.Println("no explanation found:", err)
		return
	}
	fmt.Printf("\nDataPrismGRD: %d interventions → %s\n", res.Interventions, res.ExplanationString())
	fmt.Printf("malfunction after fix: %.3f\n", res.FinalScore)
}
