package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// binary is the dataprismlint command built once for the black-box tests.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dataprismlint-cli")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "dataprismlint")
	build := exec.Command("go", "build", "-o", binary, ".")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runLint runs the built binary in dir and returns its stdout and exit code.
func runLint(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(binary, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exitErr):
		return string(out), exitErr.ExitCode()
	default:
		t.Fatalf("dataprismlint %v: %v\n%s", args, err, stderr.String())
		return "", -1
	}
}

const cleanEngine = `package engine

func Stamp(now func() int64) int64 { return now() }
`

const seededEngine = `package engine

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

func TestCleanModuleExitsZero(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/engine/clock.go": cleanEngine})
	if out, code := runLint(t, root, "./..."); code != 0 || out != "" {
		t.Fatalf("clean module: exit %d, stdout %q; want 0 and empty", code, out)
	}
}

func TestSeededViolationExitsOne(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/engine/clock.go": seededEngine})
	out, code := runLint(t, root, "./...")
	if code != 1 {
		t.Fatalf("seeded module: exit %d, want 1\n%s", code, out)
	}
	want := regexp.MustCompile(`^internal/engine/clock\.go:5:\d+: .+ \[seededrand\]$`)
	if !want.MatchString(strings.TrimSpace(out)) {
		t.Fatalf("stdout %q, want one file:line:col: ... [seededrand] line", out)
	}
}

func TestStaleIgnoreExitsOne(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/engine/clock.go": `package engine

func Stamp(now func() int64) int64 {
	//lint:ignore seededrand nothing on the next line reads the clock
	return now()
}
`})
	if out, code := runLint(t, root, "./..."); code != 1 || !strings.Contains(out, "stale //lint:ignore") {
		t.Fatalf("stale directive: exit %d, stdout %q; want 1 and a stale-directive finding", code, out)
	}
}

// TestBaselineFileDemotesNothing: a root lint.baseline.json listing the
// module's finding, the file an earlier version of the command read
// implicitly, no longer changes the outcome.
func TestBaselineFileDemotesNothing(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/engine/clock.go": seededEngine})
	out, _ := runLint(t, root, "-json", "./...")
	var res struct {
		Findings []struct {
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil || len(res.Findings) != 1 {
		t.Fatalf("want one finding in -json output (err %v):\n%s", err, out)
	}
	f := res.Findings[0]
	baseline, err := json.Marshal(map[string]any{
		"version": 1,
		"findings": []map[string]any{{
			"analyzer": f.Analyzer, "file": "internal/engine/clock.go", "message": f.Message, "count": 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "lint.baseline.json"), baseline, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runLint(t, root, "./..."); code != 1 || !strings.Contains(out, "[seededrand]") {
		t.Fatalf("with a baseline file: exit %d, stdout %q; want 1 and the finding", code, out)
	}
}

func TestJSONKeys(t *testing.T) {
	root := writeModule(t, map[string]string{"internal/engine/clock.go": seededEngine})
	out, code := runLint(t, root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &top); err != nil {
		t.Fatalf("output is not one JSON object: %v\n%s", err, out)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"findings", "suppressed"}; !slices.Equal(keys, want) {
		t.Fatalf("top-level keys %v, want %v", keys, want)
	}
}

// TestUnknownFlagExitsTwo: -baseline is gone, so naming it is a usage
// error even when the file it names exists.
func TestUnknownFlagExitsTwo(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/engine/clock.go": cleanEngine,
		"lint.baseline.json":       `{"version": 1, "findings": []}` + "\n",
	})
	if out, code := runLint(t, root, "-baseline", "lint.baseline.json", "./..."); code != 2 {
		t.Fatalf("-baseline: exit %d, want 2\n%s", code, out)
	}
}
