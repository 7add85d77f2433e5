// Command quickstart walks through the paper's running example (Example 1,
// Section 4.1): a discount-prediction classifier that discriminates against
// African Americans and women. It first shows profile discovery on the
// literal Figure 2/3 tables, then runs the full greedy root-cause search on
// the scaled scenario and prints the minimal explanation with its trace.
package main

import (
	"context"
	"fmt"

	dataprism "repro"
	"repro/internal/workload"
)

func main() {
	fmt.Println("=== DataPrism quickstart: the biased discount classifier ===")
	fmt.Println()

	// Part 1: the exact tables of Figures 2 and 3.
	fail10 := workload.Peoplefail()
	pass9 := workload.Peoplepass()
	fmt.Println("Peoplefail (Figure 2):")
	fmt.Print(fail10)
	fmt.Println("Peoplepass (Figure 3):")
	fmt.Print(pass9)

	disc := dataprism.DiscriminativeProfiles(pass9, fail10, dataprism.DiscoveryOptions{})
	fmt.Printf("\nDiscriminative profiles between the two tables (cf. Figure 5): %d\n", len(disc))
	for i, p := range disc {
		if i == 8 {
			fmt.Printf("  … and %d more\n", len(disc)-8)
			break
		}
		fmt.Printf("  %s  (violation on Peoplefail: %.3f)\n", p, p.Violation(fail10))
	}

	// Part 2: the scaled scenario with a real classifier in the loop.
	fmt.Println("\n=== Root-cause search on the scaled scenario ===")
	sc := workload.NewBiasScenario(600, 4)
	fmt.Printf("malfunction(pass) = %.3f, malfunction(fail) = %.3f, tau = %.2f\n",
		sc.System.MalfunctionScore(sc.Pass), sc.System.MalfunctionScore(sc.Fail), sc.Tau)

	e := &dataprism.Explainer{System: sc.System, Tau: sc.Tau, Options: &sc.Options, Seed: 4}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), e.Candidates(sc.Pass, sc.Fail), sc.Fail)
	if err != nil {
		fmt.Println("no explanation found:", err)
		return
	}
	fmt.Printf("\nDataPrismGRD finished in %v with %d interventions over %d candidates.\n",
		res.Runtime.Round(1000000), res.Interventions, res.Discriminative)
	fmt.Println("Intervention trace:")
	for _, step := range res.Trace {
		status := "rejected"
		if step.Accepted {
			status = "ACCEPTED"
		}
		fmt.Printf("  [%s] %v via %s → score %.3f\n", status, res.Names(step.PVTs), step.Transform, step.Score)
	}
	fmt.Printf("\nMinimal explanation (cause and fix): %s\n", res.ExplanationString())
	fmt.Printf("Malfunction after repair: %.3f (threshold %.2f)\n", res.FinalScore, sc.Tau)
}
