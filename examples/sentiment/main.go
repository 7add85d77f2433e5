// Command sentiment reproduces case study 1 (Section 5.1): a pretrained
// sentiment classifier assumes labels in {-1, 1}, but the failing dataset
// arrives with the sentiment140 encoding {0, 4}. DataPrism exposes the
// Domain profile of the target attribute as the root cause and the
// rank-aligned value mapping (0→-1, 4→1) as the fix.
package main

import (
	"context"
	"fmt"

	dataprism "repro"
	"repro/internal/workload"
)

func main() {
	sc := workload.NewSentimentScenario(1000, 1)
	fmt.Println("=== Case study: Sentiment Prediction ===")
	fmt.Printf("passing dataset (IMDb-style labels):   malfunction %.3f\n", sc.System.MalfunctionScore(sc.Pass))
	fmt.Printf("failing dataset (twitter-style labels): malfunction %.3f\n", sc.System.MalfunctionScore(sc.Fail))
	fmt.Printf("threshold tau = %.2f\n\n", sc.Tau)

	fmt.Println("Failing labels:", sc.Fail.DistinctStrings("target"))
	fmt.Println("Passing labels:", sc.Pass.DistinctStrings("target"))

	for name, run := range map[string]func() (*dataprism.Result, error){
		"DataPrismGRD": func() (*dataprism.Result, error) {
			e := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 1}
			return e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(sc.Pass, sc.Fail), sc.Fail)
		},
		"DataPrismGT": func() (*dataprism.Result, error) {
			e := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 1}
			return e.ExplainGroupTestPVTsContext(context.Background(), e.Candidates(sc.Pass, sc.Fail), sc.Fail)
		},
	} {
		res, err := run()
		if err != nil {
			fmt.Printf("%s: no explanation (%v)\n", name, err)
			continue
		}
		fmt.Printf("\n%s: %d interventions, explanation %s\n", name, res.Interventions, res.ExplanationString())
		fmt.Printf("  malfunction after fix: %.3f\n", res.FinalScore)
		if res.Transformed != nil {
			fmt.Printf("  repaired labels: %v\n", res.Transformed.DistinctStrings("target"))
		}
	}
}
