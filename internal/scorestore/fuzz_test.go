package scorestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplaySegment writes arbitrary bytes as a store's only journal
// segment and reopens the store. Open must neither panic nor fail. It must
// load exactly the records of the longest prefix of whole records that
// each carry the magic byte and a valid CRC (the last one winning for a
// repeated fingerprint) and report a torn tail exactly when bytes remain
// after that prefix. A record saved after recovery must survive a reopen.
func FuzzReplaySegment(f *testing.F) {
	rec := func(fp uint64, score float64, det bool) []byte {
		r := encodeRecord(fp, score, det)
		return r[:]
	}
	good := append(rec(1, 0.25, false), rec(2, 1, true)...)
	badCRC := append([]byte(nil), good...)
	badCRC[recordSize+3] ^= 0x10
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:recordSize+7])                                         // torn append
	f.Add(append(append([]byte(nil), good...), rec(1, 0.5, false)...)) // repeated fingerprint
	f.Add(badCRC)
	f.Add(append(rec(3, math.NaN(), false), recordMagic))

	f.Fuzz(func(t *testing.T, seg []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, fmt.Sprintf("%016x", hashOracleID("fuzz")))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.dpj"), seg, 0o644); err != nil {
			t.Fatal(err)
		}

		// The valid prefix, decoded straight from the record layout.
		want := map[uint64]uint64{} // fingerprint -> score bits
		n, off := 0, 0
		for ; off+recordSize <= len(seg); off += recordSize {
			r := seg[off : off+recordSize]
			if r[0] != recordMagic || crc32.ChecksumIEEE(r[:18]) != binary.LittleEndian.Uint32(r[18:22]) {
				break
			}
			want[binary.LittleEndian.Uint64(r[1:9])] = binary.LittleEndian.Uint64(r[9:17])
			n++
		}
		torn := 0
		if off != len(seg) {
			torn = 1
		}

		s, err := Open(root, "fuzz", Options{})
		if err != nil {
			t.Fatalf("Open on a fuzzed segment: %v", err)
		}
		if st := s.Stats(); st.Loaded != n || st.CorruptTail != torn || st.Discarded {
			t.Fatalf("recovery stats %+v, want Loaded %d, CorruptTail %d", st, n, torn)
		}
		if len(s.mem) != len(want) {
			t.Fatalf("store holds %d fingerprints, want %d distinct", len(s.mem), len(want))
		}
		for fp, bits := range want {
			if v, ok := s.Load(fp); !ok || math.Float64bits(v) != bits {
				t.Fatalf("Load(%#x) = %v, %v; want bits %#x", fp, v, ok, bits)
			}
		}

		// A save after recovery lands in a segment that replays clean.
		const fp, score = 0xfeedface, 0.125
		s.Save(fp, score, false)
		appended := 1
		if bits, ok := want[fp]; ok && math.Float64frombits(bits) == score {
			appended = 0 // already persisted with this score
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(root, "fuzz", Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if st := s.Stats(); st.Loaded != n+appended || st.CorruptTail != torn {
			t.Fatalf("after a save and reopen: stats %+v, want Loaded %d, CorruptTail %d", st, n+appended, torn)
		}
		if v, ok := s.Load(fp); !ok || v != score {
			t.Fatalf("Load of the saved record = %v, %v", v, ok)
		}
	})
}
