// Command drift demonstrates profile artifacts as a drift early-warning
// system, on the scenario the paper's introduction motivates: a sensor
// fleet is gradually recalibrated toward a different unit scale, and an
// anomaly detector tuned on the old distribution will eventually fire
// constantly. Instead of waiting for the malfunction, the passing window's
// profiles are pinned as a versioned baseline artifact and a watcher
// re-profiles each new feed window against it — flagging the distribution
// drift as discriminative (the pinned profile is already violated) several
// windows before the detector's alert rate crosses its threshold.
//
// The program exits nonzero if the watcher fails to escalate before the
// oracle degrades, so it doubles as an end-to-end check of the
// profile→artifact→watch pipeline.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	dataprism "repro"
	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/profile"
	"repro/internal/stats"
)

// genReadings synthesizes sensor readings: temperature-like values plus a
// status column. scale/offset model the recalibration drift.
func genReadings(n int, seed int64, scale, offset float64) *dataprism.Dataset {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, n)
	status := make([]string, n)
	for i := range vals {
		vals[i] = (20+4*rng.NormFloat64())*scale + offset
		status[i] = []string{"ok", "ok", "ok", "standby"}[rng.Intn(4)]
	}
	d := dataset.New()
	d.MustAddNumeric("reading", vals)
	d.MustAddCategorical("status", status)
	return d
}

func main() {
	const tau = 0.05
	ctx := context.Background()
	pass := genReadings(2000, 1, 1, 0) // Celsius-era commissioning window

	// The anomaly detector: alerts on readings outside the commissioning
	// band [5, 35] (mean ± ~3.75σ of the original scale); its malfunction
	// is the alert rate.
	sys := &dataprism.SystemFunc{SystemName: "anomaly-detector", Score: func(d *dataprism.Dataset) float64 {
		vals := d.NumericValues("reading")
		if len(vals) == 0 {
			return 1
		}
		alerts := 0
		for _, v := range vals {
			if v < 5 || v > 35 {
				alerts++
			}
		}
		return float64(alerts) / float64(len(vals))
	}}

	fmt.Println("=== Drift watch: pinned profile artifact vs a recalibrating fleet ===")

	// Pin the passing window's profiles as the versioned baseline artifact —
	// what `dataprism profile -data pass.csv -o baseline.json` does.
	opts := profile.Options{Classes: map[string]bool{"distribution": true}}
	baseline, err := artifact.Build(pass, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "building baseline artifact:", err)
		os.Exit(1)
	}
	fmt.Printf("baseline: %d profiles across %v pinned (fingerprint %s)\n\n",
		len(baseline.Profiles), baseline.Classes, baseline.Fingerprint)

	// The feed: each window drifts a little further toward Fahrenheit.
	// The watcher re-profiles every window against the pinned baseline —
	// what `dataprism watch -baseline baseline.json -data feed.csv` does.
	type stage struct{ scale, offset float64 }
	schedule := []stage{
		{1.0, 0},   // still calibrated
		{1.1, 4},   // first recalibrated sensors come online
		{1.25, 10}, // fleet half-migrated
		{1.5, 20},  // most of the fleet reports the new unit
		{1.8, 32},  // full Fahrenheit
	}
	window := 0
	w := &artifact.Watcher{
		Baseline: baseline,
		Source: func() (*dataset.Dataset, error) {
			s := schedule[window]
			return genReadings(2000, int64(2+window), s.scale, s.offset), nil
		},
		Oracle:  dataprism.AsFallibleSystem(dataprism.AsContextSystem(sys)),
		Options: opts,
		Eps:     0.03,
	}

	firstEscalation, firstBreach := -1, -1
	var lastFeed *dataset.Dataset
	for window = 0; window < len(schedule); window++ {
		ev, err := w.Tick(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "watch tick:", err)
			os.Exit(1)
		}
		status := "ok"
		if ev.Escalated {
			status = "DRIFT"
			if firstEscalation < 0 {
				firstEscalation = window
			}
		}
		if ev.Score > tau && firstBreach < 0 {
			firstBreach = window
		}
		fmt.Printf("window %d [%5s]: %d drifted profiles, alert rate %.3f (tau %.2f)\n",
			window, status, len(ev.Diff.Changed)+len(ev.Diff.Removed), ev.Score, tau)
		for _, a := range ev.Alerts {
			fmt.Printf("  ! %s %s violates the pinned baseline: violation %.3f, drift %.3f\n",
				a.Class, a.Key, a.Violation, a.Magnitude)
		}
		s := schedule[window]
		lastFeed = genReadings(2000, int64(2+window), s.scale, s.offset)
	}

	fmt.Println()
	switch {
	case firstEscalation < 0:
		fmt.Fprintln(os.Stderr, "FAIL: the watcher never flagged the drift")
		os.Exit(1)
	case firstBreach >= 0 && firstEscalation >= firstBreach:
		fmt.Fprintf(os.Stderr, "FAIL: drift flagged at window %d, but the oracle already degraded at window %d\n",
			firstEscalation, firstBreach)
		os.Exit(1)
	case firstBreach < 0:
		fmt.Printf("drift flagged at window %d; the oracle never degraded within the horizon\n", firstEscalation)
	default:
		fmt.Printf("drift flagged at window %d — %d windows before the alert rate crossed tau (window %d)\n",
			firstEscalation, firstBreach-firstEscalation, firstBreach)
	}

	// Once the malfunction materializes, the same pinned artifact seeds the
	// root-cause search: the explanation cites the baseline profile exactly
	// as it was recorded (what `dataprism -baseline baseline.json` does).
	decoded, err := baseline.DecodedProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "decoding baseline artifact:", err)
		os.Exit(1)
	}
	pinned := make([]dataprism.Profile, len(decoded))
	for i, dp := range decoded {
		pinned[i] = dp.Profile
	}
	e := &dataprism.Explainer{System: sys, Tau: tau, Options: &opts, Seed: 1, BaselineProfiles: pinned}
	baselineName := "baseline artifact " + baseline.Fingerprint
	res, err := e.ExplainGreedyPVTsContext(ctx, e.Candidates(pass, lastFeed), lastFeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "no explanation found:", err)
		os.Exit(1)
	}
	fmt.Printf("\nDataPrismGRD over the pinned baseline: %d interventions over %d candidates\n",
		res.Interventions, res.Discriminative)
	fmt.Printf("minimal explanation (cites %s): %s\n", baselineName, res.ExplanationString())
	fmt.Printf("alert rate after repair: %.3f\n", res.FinalScore)
	if res.Transformed != nil {
		fmt.Printf("repaired reading mean: %.1f (baseline %.1f)\n",
			stats.Mean(res.Transformed.NumericValues("reading")), stats.Mean(pass.NumericValues("reading")))
	}
}
