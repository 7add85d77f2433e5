package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest alternating pairs a gain may rest on.
const minPairs = 10

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareCmd implements `prism-bench compare [-bench BENCHMARK.json] A B`.
// A and B are -out files: one JSON line per workload run. For each
// workload and metric it pairs the i-th run of A with the i-th run of B
// (run them alternately) and reports:
//   - the median of each side's run medians and A's quartile spread;
//   - the change from A to B, and whether it is within the metric's bound
//     (the test for two sets of runs of the same code);
//   - how many pairs B wins, and whether B is a gain by the rule for a
//     change against its parent: at least 10 pairs, B wins at least 9 in
//     10 of them, and the medians differ by more than A's interquartile
//     range.
func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	defPath := fs.String("bench", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: prism-bench compare [-bench BENCHMARK.json] A.json B.json")
	}
	raw, err := os.ReadFile(*defPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", *defPath, err)
	}
	type metric struct {
		name, better string
		bound        float64 // NaN: per-layer, no bound
	}
	var metrics []metric
	for _, m := range def.EndToEnd {
		metrics = append(metrics, metric{m.Name, m.Better, m.Bound})
	}
	for _, m := range def.PerLayer {
		metrics = append(metrics, metric{m.Name, m.Better, math.NaN()})
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n", fs.Arg(0), describe(a), fs.Arg(1), describe(b))
	fmt.Fprintf(w, "%-12s %-26s %-8s %12s %10s %12s %8s %6s %-7s %5s %s\n",
		"workload", "metric", "unit", "A median", "A IQR", "B median", "change", "bound", "within", "wins", "gain")
	for _, wl := range workloadNames {
		for _, m := range metrics {
			xa, unit := runMedians(a, wl, m.name)
			xb, _ := runMedians(b, wl, m.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sa, sb := summarize(unit, xa), summarize(unit, xb)
			sign := 1.0 // positive change = B worse
			if m.better == "higher" {
				sign = -1
			}
			change := sign * ratio(sb.Median-sa.Median, sa.Median)
			within, bound := "-", "-"
			if !math.IsNaN(m.bound) {
				bound = fmt.Sprintf("%.2f", m.bound)
				within = "yes"
				if math.Abs(change) > m.bound {
					within = "NO"
				}
			}
			wins, pairs := 0, min(len(xa), len(xb))
			for i := 0; i < pairs; i++ {
				if sign*(xb[i]-xa[i]) < 0 {
					wins++
				}
			}
			gain := "no"
			switch {
			case pairs < minPairs:
				gain = "-" // too few pairs to claim anything
			case wins*10 >= 9*pairs && sign*(sb.Median-sa.Median) < 0 && math.Abs(sb.Median-sa.Median) > sa.Q3-sa.Q1:
				gain = "yes"
			}
			fmt.Fprintf(w, "%-12s %-26s %-8s %12.6g %10.4g %12.6g %7.1f%% %6s %-7s %2d/%-2d %s\n",
				wl, m.name, unit, sa.Median, sa.Q3-sa.Q1, sb.Median, 100*change, bound, within, wins, pairs, gain)
		}
	}
	return nil
}

// readRuns reads an -out file.
func readRuns(path string) ([]*runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []*runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &r)
	}
	return runs, sc.Err()
}

// runMedians returns, in file order, the median of a metric in each run of
// a workload that reported it.
func runMedians(runs []*runResult, workload, metric string) (xs []float64, unit string) {
	for _, r := range runs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload && s.N > 0 {
			xs = append(xs, s.Median)
			unit = s.Unit
		}
	}
	return xs, unit
}

func describe(runs []*runResult) string {
	if len(runs) == 0 {
		return "no runs"
	}
	p := runs[0].Provenance
	return fmt.Sprintf("%d runs, git %.12s, %s, nproc %d, %s", len(runs), p.GitSHA, p.CPU, p.NumCPU, p.GoVersion)
}
