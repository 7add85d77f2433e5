package dataprism_test

import (
	"context"
	"fmt"

	dataprism "repro"
	"repro/internal/dataset"
)

// ExampleExplain debugs a toy system whose only requirement is that the
// status attribute uses the values {"ok", "error"}: the failing dataset
// encodes them as {"0", "1"} and DataPrism exposes the Domain profile as
// the root cause, with the value mapping as the fix.
func ExampleExplain() {
	// A black-box system: the malfunction is the fraction of rows whose
	// status is not a value the system understands.
	sys := &dataprism.ContextSystemFunc{SystemName: "status-consumer", Score: func(_ context.Context, d *dataprism.Dataset) float64 {
		c := d.Column("status")
		if c == nil || d.NumRows() == 0 {
			return 1
		}
		bad := 0
		for i := 0; i < d.NumRows(); i++ {
			if v := c.StrAt(i); v != "ok" && v != "error" {
				bad++
			}
		}
		return float64(bad) / float64(d.NumRows())
	}}

	pass := dataprism.NewDataset().
		MustAddCategorical("status", []string{"ok", "error", "ok", "ok"}).
		MustAddNumeric("latency", []float64{12, 340, 15, 11})
	fail := dataprism.NewDataset().
		MustAddCategorical("status", []string{"0", "1", "0", "0"}).
		MustAddNumeric("latency", []float64{14, 290, 16, 12})

	res, err := dataprism.Explain(context.Background(), sys, 0.1, pass, fail)
	if err != nil {
		fmt.Println("no explanation:", err)
		return
	}
	fmt.Println("explanation:", res.ExplanationString())
	fmt.Println("repaired statuses:", res.Transformed.DistinctStrings("status"))
	// Output:
	// explanation: {⟨Domain, status, {error,ok}⟩}
	// repaired statuses: [error ok]
}

// ExampleDiscoverProfiles shows profile discovery on a small table.
func ExampleDiscoverProfiles() {
	d := dataprism.NewDataset().
		MustAddCategorical("grade", []string{"A", "B", "A", "C"}).
		MustAddNumeric("score", []float64{91, 82, 95, 70})
	opts := dataprism.DiscoveryOptions{}
	opts.Classes = map[string]bool{"selectivity": false, "indep": false}
	for _, p := range dataprism.DiscoverProfiles(d, opts) {
		fmt.Println(p)
	}
	// Output:
	// ⟨Domain, grade, {A,B,C}⟩
	// ⟨Domain, score, [70, 95]⟩
	// ⟨Missing, grade, 0.000⟩
	// ⟨Missing, score, 0.000⟩
	// ⟨Outlier, score, O1.5, 0.250⟩
}

// ExamplePredicate shows the selection predicates behind Selectivity
// profiles.
func ExamplePredicate() {
	d := dataprism.NewDataset().
		MustAddCategorical("gender", []string{"F", "M", "F", "M"}).
		MustAddCategorical("high", []string{"yes", "yes", "no", "yes"})
	p := dataset.And(dataset.EqStr("gender", "F"), dataset.EqStr("high", "yes"))
	fmt.Println(p)
	fmt.Println("selectivity:", p.Selectivity(d))
	// Output:
	// gender = "F" AND high = "yes"
	// selectivity: 0.25
}
