package artifact

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/profile"
)

// driftBetween decodes both spellings of a profile and scores their
// parameter drift through the owning class's metric.
func driftBetween(class string, oldData, newData []byte) (float64, error) {
	oldP, err := profile.DecodeProfile(class, oldData)
	if err != nil {
		return 0, err
	}
	newP, err := profile.DecodeProfile(class, newData)
	if err != nil {
		return 0, err
	}
	return profile.DriftMagnitude(class, oldP, newP), nil
}

// Change is one profile present in both artifacts whose persisted bytes
// differ. Magnitude is the owning class's normalized [0,1] drift score for
// the parameter movement — 0 when only non-parameter state (e.g. a sampling
// fit bound) changed.
type Change struct {
	Class     string  `json:"class"`
	Key       string  `json:"key"`
	Magnitude float64 `json:"magnitude"`
}

// Diff is the structural difference between a baseline artifact and a
// re-profile: profiles that appeared, disappeared, or drifted. All three
// lists are in (class, key) order.
type Diff struct {
	Added   []Entry  `json:"added,omitempty"`
	Removed []Entry  `json:"removed,omitempty"`
	Changed []Change `json:"changed,omitempty"`
}

// Compare diffs a re-profile (new) against a baseline (old). It fails when
// the artifacts are incompatible (schema or fingerprint-algorithm
// generation mismatch) and otherwise reports exactly which profiles were
// added, removed, or drifted — with per-class drift magnitudes.
func Compare(old, new *Artifact) (*Diff, error) {
	if err := old.Compatible(new); err != nil {
		return nil, err
	}
	type ck struct{ class, key string }
	oldByKey := make(map[ck]Entry, len(old.Profiles))
	for _, e := range old.Profiles {
		oldByKey[ck{e.Class, e.Key}] = e
	}
	d := &Diff{}
	seen := make(map[ck]bool, len(new.Profiles))
	for _, e := range new.Profiles {
		k := ck{e.Class, e.Key}
		seen[k] = true
		oe, ok := oldByKey[k]
		if !ok {
			d.Added = append(d.Added, e)
			continue
		}
		if bytes.Equal(oe.Data, e.Data) {
			continue
		}
		mag, err := driftBetween(e.Class, oe.Data, e.Data)
		if err != nil {
			return nil, fmt.Errorf("artifact: diffing %s/%s: %w", e.Class, e.Key, err)
		}
		d.Changed = append(d.Changed, Change{Class: e.Class, Key: e.Key, Magnitude: mag})
	}
	for _, e := range old.Profiles {
		if !seen[ck{e.Class, e.Key}] {
			d.Removed = append(d.Removed, e)
		}
	}
	return d, nil
}

// Empty reports whether the two artifacts hold identical profile sets.
func (d *Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Changed) == 0
}

// Exceeds reports whether the diff crosses a drift gate: any profile
// appeared or disappeared, or any drift magnitude is strictly above
// threshold. Threshold 0 therefore gates on any parameter movement while
// tolerating byte-only changes (e.g. fit bounds).
func (d *Diff) Exceeds(threshold float64) bool {
	if len(d.Added) > 0 || len(d.Removed) > 0 {
		return true
	}
	for _, c := range d.Changed {
		if c.Magnitude > threshold {
			return true
		}
	}
	return false
}

// String renders the diff in a compact, line-oriented form: one line per
// profile, prefixed "+" (added) or "-" (removed) with an explanatory
// suffix, or "~" (present in both but drifted) with the drift magnitude.
func (d *Diff) String() string {
	if d.Empty() {
		return ""
	}
	var b strings.Builder
	for _, e := range d.Added {
		fmt.Fprintf(&b, "+ %-12s %s (added)\n", e.Class, e.Key)
	}
	for _, e := range d.Removed {
		fmt.Fprintf(&b, "- %-12s %s (removed)\n", e.Class, e.Key)
	}
	for _, c := range d.Changed {
		fmt.Fprintf(&b, "~ %-12s %s drift=%.3f\n", c.Class, c.Key, c.Magnitude)
	}
	return b.String()
}
