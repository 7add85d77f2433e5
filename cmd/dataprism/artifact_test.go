package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// profileGolden pins the `profile` artifact of the fixture profileFixture
// writes.
const profileGolden = "testdata/profile.golden.json"

// profileFixture writes a CSV whose columns exercise every default profile
// class: a structured text code (AB-123), an unstructured text note, two
// categorical and two numeric columns with NULLs. drifted scales the
// latency column; renamed spells the tier column "level". It returns the
// file's path.
func profileFixture(t *testing.T, dir, name string, drifted, renamed bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tier := "tier"
	if renamed {
		tier = "level"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "code,note,zone,%s,latency,load\n", tier)
	zones := []string{"eu", "us", "ap"}
	tiers := []string{"gold", "silver", "bronze"}
	words := []string{"late", "Delivery", "ok", "called twice!", "refund 2x", "N/A?", "fine"}
	for i := 0; i < 240; i++ {
		code := fmt.Sprintf("%c%c-%03d", 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(1000))
		note := words[rng.Intn(len(words))]
		for j := rng.Intn(3); j > 0; j-- {
			note += " " + words[rng.Intn(len(words))]
		}
		z := rng.Intn(3)
		zone, level := zones[z], tiers[(z+rng.Intn(2))%3]
		latency := 20 + 10*float64(z) + rng.NormFloat64()*4
		if drifted {
			latency *= 1.5
		}
		load := fmt.Sprintf("%.3f", 0.5*latency+rng.NormFloat64())
		lat := fmt.Sprintf("%.3f", latency)
		switch i % 17 {
		case 3:
			zone = ""
		case 5:
			lat = ""
		case 11:
			load, level = "", ""
		}
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s\n", code, note, zone, level, lat, load)
	}
	path := filepath.Join(dir, name)
	writeFile(t, dir, name, b.String())
	return path
}

// profileArtifact runs `profile` on csv and returns the artifact path.
func profileArtifact(t *testing.T, csv string) string {
	t.Helper()
	out := strings.TrimSuffix(csv, ".csv") + ".json"
	args := []string{"profile", "-data", csv, "-text-columns", "code,note", "-o", out}
	if stdout, code := run(t, args...); code != 0 {
		t.Fatalf("dataprism %v: exit code %d\n%s", args, code, stdout)
	}
	return out
}

// TestProfileArtifactGolden pins the artifact `profile` writes for the
// fixture, byte for byte. Regenerate it with -update.
func TestProfileArtifactGolden(t *testing.T) {
	dir := t.TempDir()
	got, err := os.ReadFile(profileArtifact(t, profileFixture(t, dir, "base.csv", false, false)))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(profileGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(profileGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("profile artifact differs from %s\n got %s", profileGolden, got)
	}
}

// TestDiffExitCodes pins the three exit codes of `diff`: 0 for no drift
// over -threshold, 1 for drift over it, 2 for usage errors and
// incompatible artifacts.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := profileArtifact(t, profileFixture(t, dir, "base.csv", false, false))
	drift := profileArtifact(t, profileFixture(t, dir, "drift.csv", true, false))
	renamed := profileArtifact(t, profileFixture(t, dir, "renamed.csv", false, true))

	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var a map[string]json.RawMessage
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	a["fingerprint_algo_version"] = json.RawMessage("-1")
	alien, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "alien.json", string(alien))
	incompatible := filepath.Join(dir, "alien.json")

	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"drift under threshold", []string{"-threshold", "1", base, drift}, 0},
		{"drift over threshold", []string{base, drift}, 1},
		{"profiles added and removed", []string{"-threshold", "1", base, renamed}, 1},
		{"one artifact", []string{base}, 2},
		{"unknown flag", []string{"-nosuch", base, base}, 2},
		{"missing file", []string{base, filepath.Join(dir, "nosuch.json")}, 2},
		{"incompatible artifacts", []string{base, incompatible}, 2},
	} {
		out, code := run(t, append([]string{"diff"}, tc.args...)...)
		if code != tc.want {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.want, out)
		}
	}
	if out, code := run(t, "diff", base, base); code != 0 || len(out) != 0 {
		t.Errorf("identical artifacts: exit code %d and output %q, want 0 and nothing", code, out)
	}
}

// TestDiffJSONKeys pins the top-level keys of `diff -json`: each of added,
// removed and changed appears exactly when the diff has such profiles.
func TestDiffJSONKeys(t *testing.T) {
	dir := t.TempDir()
	base := profileArtifact(t, profileFixture(t, dir, "base.csv", false, false))
	both := profileArtifact(t, profileFixture(t, dir, "both.csv", true, true))
	drift := profileArtifact(t, profileFixture(t, dir, "drift.csv", true, false))
	for _, tc := range []struct {
		name    string
		current string
		want    []string
	}{
		{"renamed and drifted", both, []string{"added", "changed", "removed"}},
		{"drifted", drift, []string{"changed"}},
		{"identical", base, nil},
	} {
		out, code := run(t, "diff", "-json", "-threshold", "1", base, tc.current)
		if code > 1 {
			t.Fatalf("%s: exit code %d\n%s", tc.name, code, out)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(out, &top); err != nil {
			t.Fatalf("%s: output is not one JSON object: %v\n%s", tc.name, err, out)
		}
		var keys []string
		for k := range top {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, tc.want) {
			t.Errorf("%s: top-level keys %v, want %v", tc.name, keys, tc.want)
		}
	}
}
