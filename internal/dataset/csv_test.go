package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleCSV = `name,age,gender,zip,bio
Shanice,45,F,01004,loves hiking and long walks
DeShawn,40,M,01004,plays chess on sundays
Malik,60,M,,retired teacher from the valley
Dustin,22,M,01009,studies astrophysics at night
Julietta,41,F,01009,paints watercolors of birds
`

func TestReadCSVInference(t *testing.T) {
	d, err := ReadCSV(strings.NewReader(sampleCSV), InferOptions{TextColumns: []string{"bio"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 5 || d.NumCols() != 5 {
		t.Fatalf("got %d rows %d cols", d.NumRows(), d.NumCols())
	}
	if d.Column("age").Kind != Numeric {
		t.Error("age should infer Numeric")
	}
	if d.Column("gender").Kind != Categorical {
		t.Error("gender should infer Categorical")
	}
	if d.Column("bio").Kind != Text {
		t.Error("bio should be forced Text")
	}
	// name has 5 distinct values, within the 64 of a Categorical column
	if d.Column("name").Kind != Categorical {
		t.Errorf("name should infer Categorical, got %v", d.Column("name").Kind)
	}
	if !d.IsNull("zip", 2) {
		t.Error("empty zip cell should be NULL")
	}
	if d.Num("age", 0) != 45 {
		t.Error("numeric parse wrong")
	}
	// 64 distinct strings are the most a Categorical column infers.
	for _, tc := range []struct {
		distinct int
		want     Kind
	}{{64, Categorical}, {65, Text}} {
		var b strings.Builder
		b.WriteString("s\n")
		for i := 0; i < 2*tc.distinct; i++ {
			fmt.Fprintf(&b, "v%d\n", i%tc.distinct)
		}
		d, err := ReadCSV(strings.NewReader(b.String()), InferOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.Column("s").Kind; got != tc.want {
			t.Errorf("%d distinct strings infer %v, want %v", tc.distinct, got, tc.want)
		}
	}
}

func TestReadCSVNumericWithNulls(t *testing.T) {
	csv := "x,y\n1,a\n,b\nNA,c\n3,d\n"
	d, err := ReadCSV(strings.NewReader(csv), InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Column("x").Kind != Numeric {
		t.Fatalf("x should be Numeric despite NULL tokens, got %v", d.Column("x").Kind)
	}
	if d.NullCount("x") != 2 {
		t.Errorf("NullCount = %d, want 2", d.NullCount("x"))
	}
}

// TestReadCSVKindsPinSchema checks InferOptions.Kinds: a label column whose
// values all look numeric stays Categorical when pinned, and a column pinned
// Numeric refuses a cell that does not parse.
func TestReadCSVKindsPinSchema(t *testing.T) {
	csv := "target,x\n-1,1.5\n1,2\n-1,NA\n"
	d, err := ReadCSV(strings.NewReader(csv), InferOptions{Kinds: map[string]Kind{"target": Categorical, "x": Numeric}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Column("target").Kind != Categorical || d.Str("target", 0) != "-1" {
		t.Fatalf("pinned target came back %v", d.Column("target").Kind)
	}
	if d.Column("x").Kind != Numeric || !d.IsNull("x", 2) {
		t.Fatalf("pinned x came back %v", d.Column("x").Kind)
	}
	if _, err := ReadCSV(strings.NewReader("x\n1\nfoo\n"), InferOptions{Kinds: map[string]Kind{"x": Numeric}}); err == nil {
		t.Error("non-numeric cell accepted in a column pinned Numeric")
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), InferOptions{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), InferOptions{}); err == nil {
		t.Error("ragged row accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d, err := ReadCSV(strings.NewReader(sampleCSV), InferOptions{TextColumns: []string{"bio"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, InferOptions{TextColumns: []string{"bio"}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Errorf("round trip changed dataset:\n%v\nvs\n%v", d, back)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "people.csv")
	d := New().
		MustAddCategorical("g", []string{"a", "b"}).
		MustAddNumeric("v", []float64{1.5, -2})
	if err := d.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(back) {
		t.Error("file round trip changed dataset")
	}
	if _, err := ReadCSVFile(filepath.Join(dir, "missing.csv"), InferOptions{}); err == nil {
		t.Error("reading a missing file should fail")
	}
}

func TestAllOnlyNullsColumnBecomesString(t *testing.T) {
	csv := "x,y\n,1\nNA,2\n"
	d, err := ReadCSV(strings.NewReader(csv), InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A column with no non-NULL values cannot be proven numeric.
	if d.Column("x").Kind == Numeric {
		t.Error("all-NULL column should not infer Numeric")
	}
	if d.NullCount("x") != 2 {
		t.Error("all cells should be NULL")
	}
}

// referenceReadCSV is the reader ReadCSV replaced: every record from
// encoding/csv's ReadAll, then each column copied out of the records. It
// is the reference ReadCSV must agree with.
func referenceReadCSV(r io.Reader, opts InferOptions) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: csv has no header row")
	}
	header := records[0]
	rows := records[1:]
	for i, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: csv row %d has %d fields, want %d", i+2, len(rec), len(header))
		}
	}
	forcedText := make(map[string]bool, len(opts.TextColumns))
	for _, n := range opts.TextColumns {
		forcedText[n] = true
	}
	d := NewChunked(DefaultChunkSize)
	for j, name := range header {
		cells := make([]string, len(rows))
		null := make([]bool, len(rows))
		for i, rec := range rows {
			cells[i] = rec[j]
			null[i] = isNullToken(strings.TrimSpace(rec[j]))
		}
		if forced, ok := opts.Kinds[name]; ok {
			if forced == Numeric {
				nums, perr := parseNumericCells(name, cells, null)
				if perr != nil {
					return nil, perr
				}
				if err := d.AddNumericColumn(name, nums, null); err != nil {
					return nil, err
				}
			} else if err := d.addColumn(newColumn(name, forced, nil, cells, null, DefaultChunkSize)); err != nil {
				return nil, err
			}
			continue
		}
		if !forcedText[name] && allNumeric(cells, null) {
			nums, perr := parseNumericCells(name, cells, null)
			if perr != nil {
				return nil, perr
			}
			if err := d.AddNumericColumn(name, nums, null); err != nil {
				return nil, err
			}
			continue
		}
		kind := Categorical
		if forcedText[name] || distinctCount(cells, null) > maxCategorical {
			kind = Text
		}
		if err := d.addColumn(newColumn(name, kind, nil, cells, null, DefaultChunkSize)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// readerOnly hides every method but Read, so ReadCSV takes its path for
// input that cannot seek.
type readerOnly struct{ io.Reader }

// assertSameRead fails the test unless two reads of one input made the
// same decision and, when both accepted it, built the same dataset: Equal
// both ways, the same fingerprint and the same column kinds.
func assertSameRead(t *testing.T, what string, want *Dataset, wantErr error, got *Dataset, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference err = %v, reader err = %v", what, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !want.Equal(got) || !got.Equal(want) {
		t.Fatalf("%s: datasets differ:\n%v\nvs\n%v", what, want, got)
	}
	if want.Fingerprint() != got.Fingerprint() {
		t.Fatalf("%s: fingerprint %x, reference %x", what, got.Fingerprint(), want.Fingerprint())
	}
	for i, c := range want.Columns() {
		if g := got.Columns()[i]; g.Kind != c.Kind || g.Name != c.Name {
			t.Fatalf("%s: column %d is %q %v, reference %q %v", what, i, g.Name, g.Kind, c.Name, c.Kind)
		}
	}
}

// FuzzReadCSVMatchesReference checks ReadCSV against referenceReadCSV on
// seekable and non-seekable input, without Kinds and with the reference's
// own inferred kinds plus one column, chosen by the fuzzer, forced to
// another kind. Both must accept or both reject (an input with two faults
// may be refused for either); accepted datasets must be the same. On input
// encoding/csv accepts, the record count that sizes the columns must be
// exact.
func FuzzReadCSVMatchesReference(f *testing.F) {
	f.Add("a,b\n1,x\n2,y\n", uint8(0), uint8(0))
	f.Add("a,b\n\"multi\nline\",1\n\"q\"\"uote\",2\n", uint8(1), uint8(1))
	f.Add("a,b\r\n1,x\r\n\r\n2,y\r\n", uint8(0), uint8(1))
	f.Add("a,b\n1,2\n3\n4,5\n", uint8(0), uint8(0))
	f.Add("a,b,c\n", uint8(2), uint8(0))
	f.Add("x,y\n1,a\n2,b", uint8(1), uint8(0))
	f.Add("x\n1\n\"\"\n3\n", uint8(0), uint8(0))
	f.Add("x,y\n-1,1.5\n1,NA\n\n\r\n", uint8(0), uint8(1))
	f.Add("h\n\r", uint8(0), uint8(0))
	f.Add("a,a\n1,2\n", uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, input string, col, kind uint8) {
		cr := csv.NewReader(strings.NewReader(input))
		cr.FieldsPerRecord = -1
		if records, err := cr.ReadAll(); err == nil {
			var c recordCounter
			c.scan([]byte(input))
			if c.records() != len(records) {
				t.Fatalf("counted %d records, encoding/csv read %d", c.records(), len(records))
			}
		}
		ref, refErr := referenceReadCSV(strings.NewReader(input), InferOptions{})
		got, err := ReadCSV(strings.NewReader(input), InferOptions{})
		assertSameRead(t, "seekable", ref, refErr, got, err)
		got, err = ReadCSV(readerOnly{strings.NewReader(input)}, InferOptions{})
		assertSameRead(t, "buffered", ref, refErr, got, err)
		if refErr != nil || ref.NumCols() == 0 {
			return
		}

		kinds := make(map[string]Kind, ref.NumCols())
		for _, c := range ref.Columns() {
			kinds[c.Name] = c.Kind
		}
		forced := ref.Columns()[int(col)%ref.NumCols()]
		kinds[forced.Name] = Kind((int(forced.Kind) + 1 + int(kind)%2) % 3)
		opts := InferOptions{Kinds: kinds}
		ref, refErr = referenceReadCSV(strings.NewReader(input), opts)
		got, err = ReadCSV(strings.NewReader(input), opts)
		assertSameRead(t, "seekable, kinds pinned", ref, refErr, got, err)
		got, err = ReadCSV(readerOnly{strings.NewReader(input)}, opts)
		assertSameRead(t, "buffered, kinds pinned", ref, refErr, got, err)
	})
}

// TestReadCSVFromPipeMatchesFile reads the same bytes from a file and from
// a pipe, which cannot seek: both reads build the same dataset.
func TestReadCSVFromPipeMatchesFile(t *testing.T) {
	data := cardioShapedCSV(t, 3000)
	path := filepath.Join(t.TempDir(), "cardio.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []InferOptions{{}, {Kinds: cardioKinds}} {
		want, err := ReadCSVFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		pr, pw, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		written := make(chan error, 1)
		go func() {
			_, err := pw.Write(data)
			pw.Close()
			written <- err
		}()
		got, err := ReadCSV(pr, opts)
		pr.Close()
		if werr := <-written; werr != nil {
			t.Fatal(werr)
		}
		assertSameRead(t, "pipe", want, nil, got, err)
		if got.NumRows() != 3000 {
			t.Fatalf("pipe read %d rows, want 3000", got.NumRows())
		}
	}
}

// cardioKinds is Cardio's schema: five numeric and two categorical columns.
var cardioKinds = map[string]Kind{
	"age": Numeric, "height": Numeric, "weight": Numeric, "ap_hi": Numeric, "ap_lo": Numeric,
	"cholesterol": Categorical, "cardio": Categorical,
}

// cardioShapedCSV writes a rows-row CSV file with Cardio's schema and
// full-precision numeric cells, as the Cardio scenario writes them.
func cardioShapedCSV(t testing.TB, rows int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	d := New()
	for _, name := range []string{"age", "height", "weight", "ap_hi", "ap_lo"} {
		nums := make([]float64, rows)
		for i := range nums {
			nums[i] = 30 + rng.Float64()*150
		}
		d.MustAddNumeric(name, nums)
	}
	for _, c := range []struct {
		name   string
		levels []string
	}{{"cholesterol", []string{"normal", "above", "high"}}, {"cardio", []string{"0", "1"}}} {
		strs := make([]string, rows)
		for i := range strs {
			strs[i] = c.levels[rng.Intn(len(c.levels))]
		}
		d.MustAddCategorical(c.name, strs)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCSVAllocatesOnce bounds what reading a 20k-row Cardio-shaped
// file allocates: the file's size (encoding/csv's one string per record),
// plus 1.25 times the bytes its columns hold (9 per numeric cell, 17 per
// string cell), plus 256 KiB. Keeping every record and copying each
// column out of them allocates about twice that.
func TestReadCSVAllocatesOnce(t *testing.T) {
	const rows = 20_000
	data := cardioShapedCSV(t, rows)
	path := filepath.Join(t.TempDir(), "cardio.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := InferOptions{Kinds: cardioKinds}
	var d *Dataset
	var err error
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err = ReadCSVFile(path, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != rows {
		t.Fatalf("read %d rows, want %d", d.NumRows(), rows)
	}
	columns := rows * (5*9 + 2*17)
	bound := uint64(len(data)) + uint64(1.25*float64(columns)) + 256<<10
	if n := after.TotalAlloc - before.TotalAlloc; n > bound {
		t.Fatalf("reading a %d-byte file with %d bytes of columns allocated %d bytes, bound %d", len(data), columns, n, bound)
	}
}

// TestCSVRoundTripSingleColumnKeepsEmptyRows writes one-column datasets
// whose cells include a NULL and an empty string: each row must come back,
// the empty cell as NULL.
func TestCSVRoundTripSingleColumnKeepsEmptyRows(t *testing.T) {
	nums := New()
	if err := nums.AddNumericColumn("x", []float64{1, 0, 3}, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	cats := New().MustAddCategorical("g", []string{"a", "", "b"})
	for _, d := range []*Dataset{nums, cats} {
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		written := buf.String()
		back, err := ReadCSV(&buf, InferOptions{Kinds: map[string]Kind{d.Columns()[0].Name: d.Columns()[0].Kind}})
		if err != nil {
			t.Fatal(err)
		}
		name := d.Columns()[0].Name
		if back.NumRows() != 3 || back.IsNull(name, 0) || !back.IsNull(name, 1) || back.IsNull(name, 2) {
			t.Fatalf("%q read back as %v, want 3 rows with the middle one NULL", written, back)
		}
		if d.Columns()[0].Kind == Numeric && !back.Equal(d) {
			t.Fatalf("%q read back as %v, want %v", written, back, d)
		}
		if d.Columns()[0].Kind != Numeric && (back.Str(name, 0) != "a" || back.Str(name, 2) != "b") {
			t.Fatalf("%q read back as %v", written, back)
		}
	}
}

// TestReadCSVRaggedInputSizesNoColumns reads a 1,000-column header over
// 20k one-field lines: the input is refused, and its record count, which
// no accepted input of its size could have, must not size 1,000 columns
// of 20k cells (340 MB) before the refusal.
func TestReadCSVRaggedInputSizesNoColumns(t *testing.T) {
	var b strings.Builder
	for j := 0; j < 1000; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "c%d", j)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("1\n", 20_000))
	input := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadCSV(strings.NewReader(input), InferOptions{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ragged input accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("refusing a %d-byte ragged input allocated %d bytes", len(input), n)
	}
}
