package artifact

import (
	"strings"
	"testing"

	"repro/internal/profile"
)

// TestDiffIdenticalIsEmpty: diffing an artifact against a rebuild of the
// same content is empty — the `dataprism diff a a` smoke contract.
func TestDiffIdenticalIsEmpty(t *testing.T) {
	opts := profile.Options{}
	a, err := Build(sensorData(600, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(sensorData(600, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Empty() {
		t.Errorf("identical content diffs non-empty:\n%s", diff)
	}
	if diff.String() != "" {
		t.Errorf("empty diff renders %q, want empty", diff.String())
	}
	if diff.Exceeds(0) {
		t.Error("empty diff exceeds threshold 0")
	}
}

// TestDiffDriftedContent: a shifted feed yields Changed entries with
// magnitudes in (0, 1], and the gate trips.
func TestDiffDriftedContent(t *testing.T) {
	opts := profile.Options{}
	opts.Classes = map[string]bool{"distribution": true}
	old, err := Build(sensorData(600, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	new, err := Build(sensorData(600, 1, 1.4, 15), opts)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Compare(old, new)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Changed) == 0 {
		t.Fatal("shifted feed produced no Changed entries")
	}
	anyPositive := false
	for _, c := range diff.Changed {
		if c.Magnitude < 0 || c.Magnitude > 1 {
			t.Errorf("%s/%s magnitude %g outside [0,1]", c.Class, c.Key, c.Magnitude)
		}
		if c.Magnitude > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("no Changed entry carries a positive drift magnitude")
	}
	if !diff.Exceeds(0) {
		t.Error("drifted diff does not exceed threshold 0")
	}
	if diff.Exceeds(1) {
		t.Error("diff with no added/removed exceeds the impossible threshold 1")
	}
	s := diff.String()
	if !strings.Contains(s, "~ ") || !strings.Contains(s, "drift=") {
		t.Errorf("diff rendering missing changed lines:\n%s", s)
	}
}

// TestDiffAddedRemoved: class-set differences surface as Added/Removed, and
// any structural appearance/disappearance trips every threshold.
func TestDiffAddedRemoved(t *testing.T) {
	d := sensorData(600, 1, 1, 0)
	lean := profile.Options{}
	full := profile.Options{}
	full.Classes = map[string]bool{"distribution": true}
	a, err := Build(d, lean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(d, full)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) == 0 {
		t.Fatal("enabling a class added no profiles")
	}
	for _, e := range diff.Added {
		if e.Class != "distribution" {
			t.Errorf("unexpected added class %q", e.Class)
		}
	}
	if !diff.Exceeds(1) {
		t.Error("structural addition does not trip the maximal threshold")
	}
	if !strings.Contains(diff.String(), "(added)") {
		t.Errorf("rendering missing added lines:\n%s", diff.String())
	}

	// The reverse direction is Removed.
	back, err := Compare(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Removed) == 0 || !strings.Contains(back.String(), "(removed)") {
		t.Errorf("reverse diff missing removals:\n%s", back.String())
	}
}

// TestDiffIncompatible: artifacts from different generations refuse to diff.
func TestDiffIncompatible(t *testing.T) {
	a, err := Build(sensorData(100, 1, 1, 0), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := *a
	b.FingerprintAlgoVersion++
	if _, err := Compare(a, &b); err == nil {
		t.Error("Compare accepted artifacts with differing fingerprint generations")
	}
}
