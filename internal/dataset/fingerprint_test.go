package dataset

import "testing"

func fpSample() *Dataset {
	d := New()
	d.MustAddNumeric("x", []float64{1, 2, 3, 4})
	d.MustAddCategorical("c", []string{"a", "b", "a", "c"})
	d.MustAddText("t", []string{"one", "two", "three", "four"})
	return d
}

func TestFingerprintStableAndCloneEqual(t *testing.T) {
	d := fpSample()
	fp := d.Fingerprint()
	if fp != d.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	if got := d.Clone().Fingerprint(); got != fp {
		t.Fatalf("clone fingerprint %x != original %x", got, fp)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpSample().Fingerprint()

	mutations := map[string]func(d *Dataset){
		"numeric value":     func(d *Dataset) { d.SetNum("x", 2, 3.5) },
		"categorical value": func(d *Dataset) { d.SetStr("c", 0, "z") },
		"text value":        func(d *Dataset) { d.SetStr("t", 3, "five") },
		"null mask":         func(d *Dataset) { d.SetNull("x", 1) },
	}
	for name, mutate := range mutations {
		d := fpSample()
		mutate(d)
		if d.Fingerprint() == base {
			t.Errorf("%s change did not alter the fingerprint", name)
		}
	}

	// Schema differences must be visible too.
	renamed := New()
	renamed.MustAddNumeric("y", []float64{1, 2, 3, 4})
	renamed.MustAddCategorical("c", []string{"a", "b", "a", "c"})
	renamed.MustAddText("t", []string{"one", "two", "three", "four"})
	if renamed.Fingerprint() == base {
		t.Error("column rename did not alter the fingerprint")
	}
}

func TestFingerprintIgnoresMaskedGarbage(t *testing.T) {
	// Two datasets differing only in the value slot under a NULL mask must
	// fingerprint equal: the slot is semantically invisible.
	a := New()
	a.MustAddNumeric("x", []float64{1, 99, 3})
	a.SetNull("x", 1)
	b := New()
	b.MustAddNumeric("x", []float64{1, -7, 3})
	b.SetNull("x", 1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("masked value slots leaked into the fingerprint")
	}
}

// TestFingerprintGolden pins the cross-process stability contract behind
// FingerprintAlgoVersion: fingerprints key persistent score caches, so the
// exact values for fixed content must not drift between builds or runs. If
// this test fails, the algorithm changed — bump FingerprintAlgoVersion (the
// score store then discards stale caches instead of serving wrong scores)
// and update the pinned values.
func TestFingerprintGolden(t *testing.T) {
	if got, want := fpSample().Fingerprint(), uint64(0x61af206de350d311); got != want {
		t.Errorf("fpSample fingerprint %#x, want %#x — algorithm changed without bumping FingerprintAlgoVersion (= %d)",
			got, want, FingerprintAlgoVersion)
	}
	if got, want := New().Fingerprint(), uint64(0x50bebf6edbd6cf00); got != want {
		t.Errorf("empty-dataset fingerprint %#x, want %#x — algorithm changed without bumping FingerprintAlgoVersion (= %d)",
			got, want, FingerprintAlgoVersion)
	}
	if FingerprintAlgoVersion != 3 {
		t.Errorf("FingerprintAlgoVersion = %d; this test pins version 3 values — repin the golden fingerprints for the new algorithm", FingerprintAlgoVersion)
	}
}

func TestFingerprintEmptyDataset(t *testing.T) {
	if New().Fingerprint() == fpSample().Fingerprint() {
		t.Fatal("empty dataset collides with populated one")
	}
}

// TestFingerprintRehashesOnlyDirtyChunk pins the incremental fingerprint:
// after a one-cell write to a multi-chunk column, every clean chunk — in the
// written column and in the others — keeps its cached digest partial, so the
// next Fingerprint re-hashes exactly one chunk and still equals the
// from-scratch value.
func TestFingerprintRehashesOnlyDirtyChunk(t *testing.T) {
	d := sampleTestDataset(t, 1_000, 100)
	d.Fingerprint()
	cp := d.Clone()
	cp.SetNum("num", 250, -5) // chunk 2 of 10

	type chunkRef struct {
		col string
		k   int
	}
	stale := func() []chunkRef {
		var out []chunkRef
		for _, c := range cp.Columns() {
			for k, ch := range c.chunks {
				if ch.digestAt.Load() != ch.version.Load()+1 {
					out = append(out, chunkRef{c.Name, k})
				}
			}
		}
		return out
	}
	if got := stale(); len(got) != 1 || got[0] != (chunkRef{"num", 2}) {
		t.Fatalf("chunks needing a re-hash after a one-cell write: %v, want [{num 2}]", got)
	}
	if fp := cp.Fingerprint(); fp != cp.fingerprintScratch() || fp == d.Fingerprint() {
		t.Fatalf("incremental fingerprint %x: scratch %x, source %x", fp, cp.fingerprintScratch(), d.Fingerprint())
	}
	if got := stale(); len(got) != 0 {
		t.Fatalf("chunks still stale after Fingerprint: %v", got)
	}
}
