package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/scenarios.golden.json from the current build")

// scenarioGolden pins the -json reports of the built-in scenarios.
const scenarioGolden = "testdata/scenarios.golden.json"

// timingFields are the report fields that differ between identical runs.
var timingFields = []string{"runtime_seconds", "mean_oracle_seconds"}

// TestScenarioReportsGolden runs every built-in scenario under both
// algorithms and compares the -json reports, timing fields dropped, with
// the pinned golden file. Regenerate it with -update.
func TestScenarioReportsGolden(t *testing.T) {
	got := make(map[string]json.RawMessage)
	for _, scenario := range []string{"sentiment", "income", "cardio", "bias", "ezgo"} {
		for _, algo := range []string{"grd", "gt"} {
			out, code := run(t, "-scenario", scenario, "-algo", algo, "-rows", "500", "-workers", "2", "-json")
			if code != 0 {
				t.Fatalf("%s/%s: exit code %d\n%s", scenario, algo, code, out)
			}
			var report map[string]any
			if err := json.Unmarshal(out, &report); err != nil {
				t.Fatalf("%s/%s: %v\n%s", scenario, algo, err, out)
			}
			for _, f := range timingFields {
				delete(report, f)
			}
			data, err := json.Marshal(report)
			if err != nil {
				t.Fatal(err)
			}
			got[scenario+"/"+algo] = data
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(scenarioGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioGolden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scenarioGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(data, want) {
		return
	}
	var wantReports map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantReports); err != nil {
		t.Fatalf("%s: %v", scenarioGolden, err)
	}
	for key, report := range got {
		var compact bytes.Buffer
		if err := json.Compact(&compact, wantReports[key]); err != nil || !bytes.Equal(compact.Bytes(), report) {
			t.Errorf("%s: report differs from %s\n got %s\nwant %s", key, scenarioGolden, report, compact.Bytes())
		}
	}
	if len(wantReports) != len(got) {
		t.Errorf("%s holds %d reports, want %d", scenarioGolden, len(wantReports), len(got))
	}
}
