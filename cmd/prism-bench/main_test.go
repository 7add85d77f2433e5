package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = make(map[string]string), make(map[string]string)
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// resultLines returns the one-line JSON results a run printed, in order.
func resultLines(t *testing.T, out []byte) []map[string]json.RawMessage {
	t.Helper()
	var lines []map[string]json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"correct"`) {
			continue
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("result line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	return lines
}

// checkResultLine checks that a result line holds exactly the metrics
// BENCHMARK.json lists for its mode, each with its unit and a number.
func checkResultLine(t *testing.T, workload string, line map[string]json.RawMessage, want map[string]string) {
	t.Helper()
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, unit := range want {
		m, ok := metrics[name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s: metric %s not in the result line", workload, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s printed with unit %q, want %q", workload, name, m.Unit, unit)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: metric %s = %v", workload, name, *m.Value)
		}
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: result line has %d metrics, BENCHMARK.json lists %d", workload, len(metrics), len(want))
	}
}

// TestQuickRun runs every workload in -quick mode with tracing, which
// alternates traced and untraced reps, and checks:
//   - no cell failed (error_rate 0); a traced rep whose outcome differs
//     from the untraced rep's fails its cells;
//   - the table prints every metric BENCHMARK.json lists, with its unit;
//   - the result line holds the per-layer metrics, and the same results
//     printed untraced hold the end-to-end metrics;
//   - the spans form a tree whose children lie inside their parents.
func TestQuickRun(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	cfg, err := parseFlags([]string{"-quick", "-trace", "1", "-workdir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	results, err := run(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	lines := resultLines(t, stdout.Bytes())
	if len(results) != len(workloadNames) || len(lines) != len(workloadNames) {
		t.Fatalf("got %d results and %d result lines, want %d each", len(results), len(lines), len(workloadNames))
	}
	rows := make(map[string]bool) // "name unit" of every table row
	for _, l := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(l); len(f) == 8 {
			rows[f[0]+" "+f[1]] = true
		}
	}
	for _, want := range []map[string]string{endToEnd, perLayer} {
		for name, unit := range want {
			if !rows[name+" "+unit] {
				t.Errorf("no table row for %s in %s", name, unit)
			}
		}
	}
	for i, res := range results {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d cells failed (error_rate must be 0)\n%s", res.Workload, res.Failed, res.Attempted, stderr.String())
		}
		checkResultLine(t, res.Workload, lines[i], perLayer)
		untraced := *res
		untraced.Trace = false
		var buf bytes.Buffer
		untraced.print(&buf)
		checkResultLine(t, res.Workload, resultLines(t, buf.Bytes())[0], endToEnd)
		checkSpans(t, res)
	}
}

func checkSpans(t *testing.T, res *runResult) {
	t.Helper()
	byID := make(map[int]span)
	for _, s := range res.spans {
		byID[s.ID] = s
	}
	names := make(map[string]bool)
	for _, s := range res.spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", res.Workload, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("%s: span %d %s has missing parent %d", res.Workload, s.ID, s.Name, s.Parent)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("%s: span %d %s [%d,%d] outside parent %d %s [%d,%d]",
				res.Workload, s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		case s.Cell != p.Cell || s.Rep != p.Rep:
			t.Errorf("%s: span %d %s belongs to another cell or rep than its parent", res.Workload, s.ID, s.Name)
		}
	}
	want := []string{"core.Explain", "workload.score", "report.Text"}
	switch res.Workload {
	case "fig7-fleet":
		want = append(want, "remote.eval", "dataset.ReadCSVFile", "profile.Discriminative")
	case "resume":
		want = append(want, "scorestore.Open", "scorestore.Load", "scorestore.Save")
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("%s: no %s span recorded", res.Workload, n)
		}
	}
}

// TestCalibrateRefusesLeakedWork checks that the reference kernel is not
// timed while a goroutine the bench did not start is still running, and
// that it is timed, in a child process, once that goroutine has ended.
func TestCalibrateRefusesLeakedWork(t *testing.T) {
	b := &bench{idle: runtime.NumGoroutine()}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	if err := b.calibrate(nil); err == nil {
		t.Error("calibrate timed the kernel while a stray goroutine was running")
	}
	close(stop)
	<-done
	if err := b.calibrate(nil); err != nil {
		t.Fatal(err)
	}
	if len(b.refS) != 1 || !(b.refS[0] > 0) {
		t.Errorf("kernel times %v, want one positive time", b.refS)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Python 3.11: statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, med, q3 := quartiles(c.data)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, med, q3, c.want)
		}
	}
}

func TestCovered(t *testing.T) {
	got := covered([][2]int64{{5, 7}, {0, 2}, {1, 3}, {6, 9}, {10, 10}})
	if got != 7 { // [0,3] + [5,9]
		t.Errorf("covered = %d, want 7", got)
	}
}
