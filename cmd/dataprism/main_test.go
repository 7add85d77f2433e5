package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// binary is the dataprism command built once for the black-box tests.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dataprism-cli")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "dataprism")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the built binary and returns its stdout and exit code.
func run(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
		return out, 0
	case errors.As(err, &exitErr):
		return out, exitErr.ExitCode()
	default:
		t.Fatalf("dataprism %v: %v\n%s", args, err, stderr.String())
		return nil, -1
	}
}

// TestJSONReportSchema pins the -json output of a built-in scenario: exit
// code, top-level keys, and trace steps that name their PVTs.
func TestJSONReportSchema(t *testing.T) {
	out, code := run(t, "-scenario", "income", "-algo", "gt", "-rows", "500", "-json")
	if code != 0 {
		t.Fatalf("exit code %d, want 0:\n%s", code, out)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(out, &top); err != nil {
		t.Fatalf("output is not one JSON object: %v\n%s", err, out)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{
		"breaker_trips", "cache_hits", "deterministic_failures", "discriminative_pvts",
		"explanation", "explanation_by_class", "fail_score", "final_score", "found",
		"interventions", "mean_oracle_seconds", "parallel_batches", "pass_score",
		"retries", "runtime_seconds", "store_hits", "system", "tau", "trace",
		"transient_failures",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("top-level keys\n got %v\nwant %v", keys, want)
	}

	var res struct {
		Found bool `json:"found"`
		Trace []struct {
			PVTs []string `json:"pvts"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("found = false, want true")
	}
	if len(res.Trace) == 0 {
		t.Fatal("empty trace")
	}
	for i, step := range res.Trace {
		if len(step.PVTs) == 0 {
			t.Errorf("trace[%d].pvts is empty", i)
		}
		for _, name := range step.PVTs {
			if !strings.HasPrefix(name, "⟨") || !strings.HasSuffix(name, "⟩") {
				t.Errorf("trace[%d].pvts holds %q, want a ⟨…⟩ PVT name", i, name)
			}
		}
	}
}

// TestUnknownScenarioExitsOne checks that an unknown -scenario fails the
// run with exit code 1.
func TestUnknownScenarioExitsOne(t *testing.T) {
	if _, code := run(t, "-scenario", "nosuch"); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
}
