package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// summary describes one metric's samples.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	return s
}

// quartiles returns the quartiles of sorted data the way Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method), so
// spreads read the same here and in Python.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// layerSamples computes the per-layer metrics of a traced workload run:
// for each traced rep, sums over the rep's cells from its spans and
// counters; then the run-level trace overhead and warm re-run time.
func layerSamples(workload string, reps []repSample, spans []span, rec *recorder) map[string][]float64 {
	out := make(map[string][]float64)
	add := func(name string, v float64) { out[name] = append(out[name], v) }
	var traced, untraced []float64
	for _, r := range reps {
		explain := 0.0 // scaled like explain_s
		for _, c := range r.runs {
			explain += c.secs * r.speed
			if c.warm != nil {
				explain += c.warm.secs * r.speed
			}
		}
		if !r.traced {
			untraced = append(untraced, explain)
			continue
		}
		traced = append(traced, explain)
		var mine []span
		children := make(map[int][][2]int64)
		for _, s := range spans {
			if s.Workload == workload && s.Rep == r.rep {
				mine = append(mine, s)
				children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
			}
		}
		busy := make(map[string]float64)
		calls := make(map[string]float64)
		var scoreIvs [][2]int64
		var evals []float64
		var searchSelf float64
		for _, s := range mine {
			busy[s.Name] += s.dur()
			calls[s.Name]++
			switch s.Name {
			case "workload.score":
				scoreIvs = append(scoreIvs, [2]int64{s.Start, s.End})
			case "remote.eval":
				evals = append(evals, s.dur()*1000)
			case "core.Explain":
				searchSelf += float64(s.End-s.Start-covered(children[s.ID])) / 1e9
			}
		}
		ct := rec.counts[repKey{workload, r.rep}]
		add("dataset.ingest_s", busy["dataset.ReadCSVFile"])
		add("dataset.ingest_mb", ct["dataset.ingest_mb"])
		add("profile.discriminative_s", busy["profile.Discriminative"])
		add("profile.candidates", ct["profile.candidates"])
		add("core.search_s", busy["core.Explain"])
		add("core.search_self_s", searchSelf)
		add("core.trace_steps", ct["core.trace_steps"])
		for _, n := range []string{"cache_hits", "batches", "store_hits", "failures", "retries"} {
			add("engine."+n, ct["engine."+n])
		}
		add("engine.cache_hit_ratio", ratio(ct["engine.cache_hits"], ct["engine.cache_hits"]+ct["engine.cache_misses"]))
		add("engine.oracle_concurrency", ratio(busy["workload.score"], float64(covered(scoreIvs))/1e9))
		add("workload.score_calls", calls["workload.score"])
		add("workload.score_busy_s", busy["workload.score"])
		add("workload.baseline_s", busy["workload.baseline"])
		add("remote.eval_calls", calls["remote.eval"])
		add("remote.eval_busy_s", busy["remote.eval"])
		sort.Float64s(evals)
		add("remote.eval_p50_ms", percentile(evals, 0.5))
		add("remote.eval_p90_ms", percentile(evals, 0.9))
		wire := 0.0
		if len(evals) > 0 {
			wire = busy["remote.eval"] - busy["workload.score"]
		}
		add("remote.wire_s", wire)
		add("remote.wire_share", ratio(wire, busy["remote.eval"]))
		for _, n := range []string{"sent_mb", "recv_mb", "failovers", "worker_faults"} {
			add("remote."+n, ct["remote."+n])
		}
		add("scorestore.open_s", busy["scorestore.Open"])
		add("scorestore.loaded", ct["scorestore.loaded"])
		add("scorestore.load_calls", calls["scorestore.Load"])
		add("scorestore.load_s", busy["scorestore.Load"])
		add("scorestore.save_calls", calls["scorestore.Save"])
		add("scorestore.save_s", busy["scorestore.Save"])
		add("report.render_s", busy["report.Text"])
	}
	overhead := 0.0
	if len(traced) > 0 && len(untraced) > 0 {
		overhead = median(traced)/median(untraced) - 1
	}
	add("trace.overhead_frac", overhead)
	out["rerun_s"] = endToEndSamples(reps)["rerun_s"]
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank percentile of sorted data (0 when
// empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// geomean returns the geometric mean of positive numbers.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(sortedCopy(xs))
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// breakdownCol is one column of printBreakdown: a title and the span it sums.
type breakdownCol struct{ title, span string }

// printBreakdown prints, per cell, the median over traced reps of the time
// spent in each layer: where a debugging run's time goes.
func printBreakdown(w io.Writer, res *runResult) {
	cols := []breakdownCol{
		{"ingest", "dataset.ReadCSVFile"}, {"baseline", "workload.baseline"},
		{"discover", "profile.Discriminative"}, {"search", "core.Explain"},
		{"score", "workload.score"}, {"eval", "remote.eval"}, {"store", "scorestore.Save"},
		{"report", "report.Text"},
	}
	per := make(map[string]map[string]map[int]float64) // cell → column → rep → seconds
	var cells []string
	for _, s := range res.spans {
		if s.Workload != res.Workload || s.Rep <= 0 {
			continue
		}
		if per[s.Cell] == nil {
			per[s.Cell] = make(map[string]map[int]float64)
			cells = append(cells, s.Cell)
		}
		for _, c := range cols {
			if c.span == s.Name {
				if per[s.Cell][c.title] == nil {
					per[s.Cell][c.title] = make(map[int]float64)
				}
				per[s.Cell][c.title][s.Rep] += s.dur()
			}
		}
	}
	fmt.Fprintf(w, "%s: seconds per cell by layer (median over traced reps; score is busy time, summed over concurrent calls)\n", res.Workload)
	var head strings.Builder
	fmt.Fprintf(&head, "  %-22s", "cell")
	for _, c := range cols {
		fmt.Fprintf(&head, " %9s", c.title)
	}
	fmt.Fprintln(w, head.String())
	for _, cell := range cells {
		printRow(w, cell, cols, per[cell])
	}
}

func printRow(w io.Writer, cell string, cols []breakdownCol, byCol map[string]map[int]float64) {
	var line strings.Builder
	fmt.Fprintf(&line, "  %-22s", cell)
	for _, c := range cols {
		var xs []float64
		for _, v := range byCol[c.title] {
			xs = append(xs, v)
		}
		med := 0.0
		if len(xs) > 0 {
			med = median(xs)
		}
		fmt.Fprintf(&line, " %9.4f", med)
	}
	fmt.Fprintln(w, line.String())
}
