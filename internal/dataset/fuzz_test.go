package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV asserts that arbitrary input never panics the CSV reader, that
// any successfully parsed dataset survives a write/read round trip, and that
// the chunk layout is unobservable: parsing the same input under assorted
// chunk sizes (including the fuzzer's choice) yields datasets whose digests,
// statistics, and predicate masks are identical to the single-chunk parse.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n", uint16(1))
	f.Add("x\nNULL\n3.5\n", uint16(2))
	f.Add("name,age\n\"quoted, comma\",7\n", uint16(3))
	f.Add(",,\n,,\n", uint16(64))
	f.Add("h\n\xff\xfe\n", uint16(65535))
	f.Fuzz(func(t *testing.T, input string, csizeSeed uint16) {
		d, err := ReadCSV(strings.NewReader(input), InferOptions{})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatalf("write after successful read failed: %v", err)
		}
		back, err := ReadCSV(&buf, InferOptions{})
		if err != nil {
			t.Fatalf("re-read of own output failed: %v", err)
		}
		if back.NumCols() != d.NumCols() {
			t.Fatalf("round trip changed column count: %d vs %d", d.NumCols(), back.NumCols())
		}
		// Row counts round-trip except in single-column datasets whose NULL
		// or empty cells serialize to blank lines, which encoding/csv skips
		// on read — an interop constraint of the CSV format itself.
		if d.NumCols() > 1 && back.NumRows() != d.NumRows() {
			t.Fatalf("round trip changed row count: %d vs %d", d.NumRows(), back.NumRows())
		}

		// Chunk-layout equivalence. ref holds every row in one chunk; the
		// probe sizes straddle the chunk boundary (1, rows-1, rows, rows+1,
		// > rows) plus whatever the fuzzer picked.
		rows := d.NumRows()
		ref, err := ReadCSV(strings.NewReader(input), InferOptions{ChunkSize: rows + 1})
		if err != nil {
			t.Fatalf("single-chunk re-parse failed: %v", err)
		}
		for _, cs := range []int{1, rows - 1, rows, rows + 1, 2*rows + 3, int(csizeSeed)} {
			if cs < 1 {
				continue
			}
			got, err := ReadCSV(strings.NewReader(input), InferOptions{ChunkSize: cs})
			if err != nil {
				t.Fatalf("chunk size %d re-parse failed: %v", cs, err)
			}
			assertLayoutEquivalent(t, ref, got, cs)
		}
	})
}

// assertLayoutEquivalent fails the test unless got — parsed with chunk size
// cs — is observationally identical to the single-chunk ref: Equal both
// ways, same fingerprint, same per-column digests and statistics, and same
// predicate masks.
func assertLayoutEquivalent(t *testing.T, ref, got *Dataset, cs int) {
	t.Helper()
	if !ref.Equal(got) || !got.Equal(ref) {
		t.Fatalf("chunk size %d: Equal disagrees with single-chunk layout", cs)
	}
	if rf, gf := ref.Fingerprint(), got.Fingerprint(); rf != gf {
		t.Fatalf("chunk size %d: fingerprint %x != single-chunk %x", cs, gf, rf)
	}
	for _, rc := range ref.Columns() {
		gc := got.Column(rc.Name)
		if gc == nil {
			t.Fatalf("chunk size %d: column %q missing", cs, rc.Name)
		}
		if rc.Digest() != gc.Digest() {
			t.Fatalf("chunk size %d: column %q digest differs", cs, rc.Name)
		}
		rr, gr := rc.Rollup(), gc.Rollup()
		if rr.Rows != gr.Rows || rr.Nulls != gr.Nulls || rr.Moments.Count != gr.Moments.Count ||
			!sameFloat(rr.Min(), gr.Min()) || !sameFloat(rr.Max(), gr.Max()) {
			t.Fatalf("chunk size %d: column %q scalar stats differ: %+v vs %+v", cs, rc.Name, rr, gr)
		}
		// Mean/StdDev are merged from per-chunk moments, equal to the flat
		// two-pass values only up to floating-point association error — the
		// tolerance scales with the value magnitude and row count.
		scale := math.Max(math.Abs(rr.Min()), math.Abs(rr.Max()))
		if !closeMoment(rr.Mean(), gr.Mean(), scale, rr.Rows) || !closeMoment(rr.StdDev(), gr.StdDev(), scale, rr.Rows) {
			t.Fatalf("chunk size %d: column %q moments differ beyond fp tolerance: %+v vs %+v", cs, rc.Name, rr, gr)
		}
		rn, gn := ref.NumericValues(rc.Name), got.NumericValues(rc.Name)
		if !sameFloats(rn, gn) || len(rn) != rr.Moments.Count {
			t.Fatalf("chunk size %d: column %q value vectors differ", cs, rc.Name)
		}
		rs, gs := ref.StringValues(rc.Name), got.StringValues(rc.Name)
		if !sameStrings(rs, gs) || !sameStrings(rr.Distinct, gr.Distinct) {
			t.Fatalf("chunk size %d: column %q string vectors differ", cs, rc.Name)
		}
		if len(rn)+len(rs) != rr.Rows-rr.Nulls {
			t.Fatalf("chunk size %d: column %q has %d values, roll-up counts %d non-NULL", cs, rc.Name, len(rn)+len(rs), rr.Rows-rr.Nulls)
		}
		// Predicate masks are chunk-at-a-time; they must not see the layout.
		var pred Predicate
		switch rc.Kind {
		case Numeric:
			pred = And(CmpNum(rc.Name, Ge, rr.Mean()))
		default:
			if len(rs) == 0 {
				continue
			}
			pred = And(EqStr(rc.Name, rs[0]))
		}
		rm := pred.Mask(ref, nil)
		gm := pred.Mask(got, nil)
		for i := range rm {
			if rm[i] != gm[i] {
				t.Fatalf("chunk size %d: column %q mask row %d differs", cs, rc.Name, i)
			}
		}
	}
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// closeMoment compares merged moments across chunk layouts: exact match, or
// within an association-error tolerance proportional to n·ε·scale. Values in
// overflow territory (either side or the tolerance non-finite) are accepted —
// summation order legitimately decides between ±Inf, NaN, and a saturated
// finite value there.
func closeMoment(a, b, scale float64, n int) bool {
	if sameFloat(a, b) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) || math.IsNaN(a) || math.IsNaN(b) {
		return true
	}
	tol := 1e-9 * math.Max(1, scale) * math.Max(1, float64(n))
	if math.IsInf(tol, 0) || math.IsNaN(tol) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
