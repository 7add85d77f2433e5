package scorestore

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func openT(t *testing.T, root, oracle string, opts Options) *Store {
	t.Helper()
	s, err := Open(root, oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	root := t.TempDir()
	s := openT(t, root, "oracle-a", Options{})
	s.Save(1, 0.25, false)
	s.Save(2, 1, true)
	s.Save(1, 0.25, false) // duplicate: no second record
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Appends != 2 {
		t.Fatalf("appends = %d, want 2 (duplicate deduped)", st.Appends)
	}

	s2 := openT(t, root, "oracle-a", Options{})
	defer s2.Close()
	if st := s2.Stats(); st.Loaded != 2 || st.CorruptTail != 0 || st.Discarded {
		t.Fatalf("recovery stats = %+v", st)
	}
	if v, ok := s2.Load(1); !ok || v != 0.25 {
		t.Fatalf("Load(1) = %v, %v", v, ok)
	}
	if v, ok := s2.Load(2); !ok || v != 1 {
		t.Fatalf("Load(2) = %v, %v", v, ok)
	}
	if _, ok := s2.Load(3); ok {
		t.Fatal("Load(3) hit on a never-saved fingerprint")
	}
}

func TestStoreOraclesAreIsolated(t *testing.T) {
	root := t.TempDir()
	a := openT(t, root, "oracle-a", Options{})
	a.Save(7, 0.5, false)
	a.Close()

	b := openT(t, root, "oracle-b", Options{})
	defer b.Close()
	if _, ok := b.Load(7); ok {
		t.Fatal("oracle-b read oracle-a's score")
	}
}

func TestStoreOracleMismatchDetected(t *testing.T) {
	root := t.TempDir()
	s := openT(t, root, "oracle-a", Options{})
	s.Save(1, 0.5, false)
	s.Close()
	// Forge a collision: point oracle-b's open at oracle-a's directory.
	metaPath := filepath.Join(s.dir, "meta.json")
	if _, err := Open(filepath.Dir(s.dir), "oracle-a", Options{}); err != nil {
		t.Fatalf("same oracle must reopen: %v", err)
	}
	// Simulate the hash collision by rewriting the meta with another id.
	if err := writeMeta(metaPath, meta{FormatVersion: 1, OracleID: "other", FingerprintAlgo: dataset.FingerprintAlgoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Dir(s.dir), "oracle-a", Options{}); !errors.Is(err, ErrOracleMismatch) {
		t.Fatalf("err = %v, want ErrOracleMismatch", err)
	}
}

func TestStoreDiscardsOnFingerprintAlgoChange(t *testing.T) {
	root := t.TempDir()
	s := openT(t, root, "oracle-a", Options{})
	s.Save(1, 0.5, false)
	s.Close()
	// Persisted under an older fingerprint algorithm generation.
	if err := writeMeta(filepath.Join(s.dir, "meta.json"),
		meta{FormatVersion: 1, OracleID: "oracle-a", FingerprintAlgo: dataset.FingerprintAlgoVersion - 1}); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, root, "oracle-a", Options{})
	defer s2.Close()
	if st := s2.Stats(); !st.Discarded || st.Loaded != 0 {
		t.Fatalf("stats = %+v, want discarded empty cache", st)
	}
	if _, ok := s2.Load(1); ok {
		t.Fatal("score from a stale fingerprint generation served")
	}
	// The rewritten meta must carry the current version again.
	s2.Save(2, 0.75, false)
	s2.Close()
	s3 := openT(t, root, "oracle-a", Options{})
	defer s3.Close()
	if st := s3.Stats(); st.Discarded || st.Loaded != 1 {
		t.Fatalf("stats after refresh = %+v", st)
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	root := t.TempDir()
	// Tiny segments: 5 records each.
	s := openT(t, root, "oracle-a", Options{MaxSegmentBytes: 5 * recordSize})
	const n = 23
	for i := 0; i < n; i++ {
		s.Save(uint64(i+1), float64(i)/n, i%2 == 0)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := s.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("segments = %v, want rotation into ≥4 files", segs)
	}
	s2 := openT(t, root, "oracle-a", Options{MaxSegmentBytes: 5 * recordSize})
	defer s2.Close()
	if st := s2.Stats(); st.Loaded != n || st.CorruptTail != 0 {
		t.Fatalf("recovery stats = %+v, want %d loaded", st, n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s2.Load(uint64(i + 1)); !ok || v != float64(i)/n {
			t.Fatalf("Load(%d) = %v, %v", i+1, v, ok)
		}
	}
}

// TestStoreCrashRecoveryProperty is the satellite property test: write N
// records, corrupt or truncate the journal tail at a seeded random offset,
// reopen, and assert every record before the damage loads — and that a
// subsequent run re-scores (Saves) only the lost slots, after which the
// store is whole again.
func TestStoreCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5c0)) //nolint — seeded: the property must be reproducible
	for trial := 0; trial < 40; trial++ {
		root := t.TempDir()
		n := 10 + rng.Intn(90)
		s := openT(t, root, "oracle-a", Options{})
		for i := 0; i < n; i++ {
			s.Save(uint64(i+1), float64(i+1)/float64(n+1), false)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Damage the single segment's tail: truncate mid-record, or flip a
		// bit somewhere in the final stretch.
		path := s.segPath(1)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != n*recordSize {
			t.Fatalf("trial %d: journal size %d, want %d", trial, len(raw), n*recordSize)
		}
		damageByte := len(raw) - 1 - rng.Intn(recordSize*3) // within the last 3 records
		truncate := rng.Intn(2) == 0
		if truncate && damageByte%recordSize == 0 {
			// Truncation at an exact record boundary is indistinguishable
			// from a clean shorter journal; keep the cut mid-record so the
			// damage is observable.
			damageByte++
		}
		firstDamagedRec := damageByte / recordSize
		if truncate {
			if err := os.Truncate(path, int64(damageByte)); err != nil {
				t.Fatal(err)
			}
		} else {
			raw[damageByte] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		s2 := openT(t, root, "oracle-a", Options{})
		st := s2.Stats()
		if st.Loaded != firstDamagedRec {
			t.Fatalf("trial %d (truncate=%v, byte %d): loaded %d records, want %d intact",
				trial, truncate, damageByte, st.Loaded, firstDamagedRec)
		}
		if st.CorruptTail != 1 {
			t.Fatalf("trial %d: corrupt-tail segments = %d, want 1", trial, st.CorruptTail)
		}
		// Everything before the damage must load; everything at or after it
		// must miss — those are exactly the slots a resumed run re-scores.
		relost := 0
		for i := 0; i < n; i++ {
			v, ok := s2.Load(uint64(i + 1))
			if i < firstDamagedRec {
				if !ok || v != float64(i+1)/float64(n+1) {
					t.Fatalf("trial %d: intact record %d lost (%v, %v)", trial, i+1, v, ok)
				}
				continue
			}
			if ok {
				t.Fatalf("trial %d: damaged record %d still served", trial, i+1)
			}
			s2.Save(uint64(i+1), float64(i+1)/float64(n+1), false)
			relost++
		}
		if want := n - firstDamagedRec; relost != want {
			t.Fatalf("trial %d: re-scored %d slots, want %d", trial, relost, want)
		}
		if got := s2.Stats().Appends; got != relost {
			t.Fatalf("trial %d: appends = %d, want only the %d lost slots", trial, got, relost)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}

		// Third generation: fully recovered, zero re-scores needed.
		s3 := openT(t, root, "oracle-a", Options{})
		for i := 0; i < n; i++ {
			if v, ok := s3.Load(uint64(i + 1)); !ok || v != float64(i+1)/float64(n+1) {
				t.Fatalf("trial %d: record %d missing after repair (%v, %v)", trial, i+1, v, ok)
			}
		}
		s3.Close()
	}
}

// TestStoreRecoveryContinuesPastDirtySegment: damage in an earlier segment
// skips only that segment's tail; later segments still replay.
func TestStoreRecoveryContinuesPastDirtySegment(t *testing.T) {
	root := t.TempDir()
	opts := Options{MaxSegmentBytes: 4 * recordSize}
	s := openT(t, root, "oracle-a", Options{MaxSegmentBytes: 4 * recordSize})
	const n = 10 // segments: 4 + 4 + 2 records
	for i := 0; i < n; i++ {
		s.Save(uint64(i+1), 0.5, false)
	}
	s.Close()
	// Flip a bit in the second record of the first segment.
	path := s.segPath(1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordSize+3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, root, "oracle-a", opts)
	defer s2.Close()
	st := s2.Stats()
	if st.CorruptTail != 1 {
		t.Fatalf("corrupt segments = %d, want 1", st.CorruptTail)
	}
	// Segment 1 keeps record 1 only (records 2-4 skipped); segments 2 and 3
	// replay whole: 1 + 4 + 2 = 7.
	if st.Loaded != 7 {
		t.Fatalf("loaded = %d, want 7 (1 before damage + 6 from later segments)", st.Loaded)
	}
	for _, fp := range []uint64{1, 5, 6, 7, 8, 9, 10} {
		if _, ok := s2.Load(fp); !ok {
			t.Errorf("record %d lost", fp)
		}
	}
	for _, fp := range []uint64{2, 3, 4} {
		if _, ok := s2.Load(fp); ok {
			t.Errorf("record %d after the damage served", fp)
		}
	}
}

func TestStoreSaveAfterCloseDropped(t *testing.T) {
	s := openT(t, t.TempDir(), "oracle-a", Options{})
	s.Close()
	s.Save(1, 0.5, false) // must not panic or write
	if s.writeErr != nil {
		t.Fatalf("write error after a dropped Save: %v", s.writeErr)
	}
	if _, ok := s.Load(1); ok {
		t.Fatal("a Save after Close was kept")
	}
}

func TestStoreNaNScoreRoundTrips(t *testing.T) {
	// NaN never legitimately reaches Save (failures are not persisted), but
	// the journal must still round-trip any float bit pattern faithfully.
	root := t.TempDir()
	s := openT(t, root, "oracle-a", Options{})
	s.Save(1, math.NaN(), false)
	s.Close()
	s2 := openT(t, root, "oracle-a", Options{})
	defer s2.Close()
	if v, ok := s2.Load(1); !ok || !math.IsNaN(v) {
		t.Fatalf("Load = %v, %v, want NaN", v, ok)
	}
}
