package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// isNullToken reports whether a cell, trimmed of surrounding space, is a
// spelling interpreted as NULL on import.
func isNullToken(trimmed string) bool {
	switch trimmed {
	case "", "null", "NULL", "NA", "n/a", "N/A":
		return true
	}
	return false
}

// maxCategorical is the largest distinct-value count for which ReadCSV
// infers a string column Categorical rather than Text.
const maxCategorical = 64

// InferOptions controls CSV type inference.
type InferOptions struct {
	// TextColumns forces the named columns to Text regardless of inference.
	TextColumns []string
	// Kinds forces the named columns to exact kinds, bypassing inference
	// entirely for them. A column forced Numeric whose cells do not parse is
	// an error. A reader that knows the writer's schema uses this so string
	// columns whose values happen to look numeric (e.g. "-1"/"1" class
	// labels) do not silently change type on the way back in.
	Kinds map[string]Kind
}

// ReadCSV parses CSV data whose first record is the header, inferring column
// kinds: a column is Numeric if every non-NULL cell parses as a float,
// Categorical if it has at most 64 distinct values, and Text otherwise. The
// columns have DefaultChunkSize rows per chunk; Rechunk changes that.
//
// The records are counted before they are parsed, so each column is
// allocated once at its final size and no record outlives its parse. An
// input that can seek is counted in a first pass and read again from where
// it started; any other input is read into memory once and counted there.
func ReadCSV(r io.Reader, opts InferOptions) (*Dataset, error) {
	src, count, err := countedSource(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: csv has no header row")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	header := slices.Clone(rec)

	// Every data record of an accepted input spends at least one byte per
	// field, so a count beyond that is a malformed input that will be
	// refused: it must not size the columns.
	rows := count.records() - 1
	if rows < 0 || int64(rows) > count.size/int64(len(header)) {
		rows = 0
	}
	cols := make([]columnCells, len(header))
	for j, name := range header {
		kind, pinned := opts.Kinds[name]
		cols[j] = columnCells{name: name, kind: kind, pinned: pinned, null: make([]bool, 0, rows)}
		if cols[j].parsed() {
			cols[j].nums = make([]float64, 0, rows)
		} else {
			cols[j].strs = make([]string, 0, rows)
		}
	}
	for row := 0; ; row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading csv: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataset: csv row %d has %d fields, want %d", row+2, len(rec), len(header))
		}
		for j, cell := range rec {
			if err := cols[j].add(cell, row); err != nil {
				return nil, err
			}
		}
	}

	forcedText := make(map[string]bool, len(opts.TextColumns))
	for _, n := range opts.TextColumns {
		forcedText[n] = true
	}
	d := NewChunked(DefaultChunkSize)
	for j := range cols {
		c := &cols[j]
		kind, nums := c.kind, c.nums
		if !c.pinned {
			switch {
			case !forcedText[c.name] && allNumeric(c.strs, c.null):
				kind = Numeric
				if nums, err = parseNumericCells(c.name, c.strs, c.null); err != nil {
					return nil, err
				}
			case forcedText[c.name] || distinctCount(c.strs, c.null) > maxCategorical:
				kind = Text
			default:
				kind = Categorical
			}
		}
		if err := d.addColumn(newColumn(c.name, kind, nums, c.strs, c.null, DefaultChunkSize)); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// columnCells collects one column's cells as records arrive. A column
// pinned Numeric is parsed cell by cell; every other column keeps its cell
// strings, which an inferred column needs until its kind is decided.
type columnCells struct {
	name   string
	kind   Kind
	pinned bool
	nums   []float64
	strs   []string
	null   []bool
}

// parsed reports whether the column's cells are parsed as they arrive.
func (c *columnCells) parsed() bool { return c.pinned && c.kind == Numeric }

// add appends the column's cell of the given data row.
func (c *columnCells) add(cell string, row int) error {
	trimmed := strings.TrimSpace(cell)
	null := isNullToken(trimmed)
	c.null = append(c.null, null)
	if !c.parsed() {
		c.strs = append(c.strs, cell)
		return nil
	}
	var v float64
	if !null {
		var err error
		if v, err = strconv.ParseFloat(trimmed, 64); err != nil {
			return fmt.Errorf("dataset: column %q row %d: %w", c.name, row+2, err)
		}
	}
	c.nums = append(c.nums, v)
	return nil
}

// countedSource counts the CSV records r holds and returns a reader over
// the same bytes from r's current position, with the counter that scanned
// them. A reader that can seek is scanned and then rewound; any other is
// read into memory once.
func countedSource(r io.Reader) (io.Reader, recordCounter, error) {
	var c recordCounter
	if s, ok := r.(io.ReadSeeker); ok {
		if start, err := s.Seek(0, io.SeekCurrent); err == nil {
			buf := make([]byte, 64<<10)
			for {
				n, err := s.Read(buf)
				c.scan(buf[:n])
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, c, err
				}
			}
			if _, err := s.Seek(start, io.SeekStart); err != nil {
				return nil, c, err
			}
			return s, c, nil
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, c, err
	}
	c.scan(data)
	return bytes.NewReader(data), c, nil
}

// recordCounter counts CSV records as encoding/csv splits them: a newline
// outside quotes ends a record, and a line that is empty or holds only
// "\r" is skipped. Toggling on every quote is exact on any input
// encoding/csv accepts, where a quote only opens a field, closes it, or
// is doubled inside it; on any other input the count is never used.
type recordCounter struct {
	n       int   // records ended by a newline
	size    int64 // bytes scanned
	inQuote bool
	line    int  // bytes of the current record so far, counted up to 2
	cr      bool // the current record's first byte is '\r'
}

func (c *recordCounter) scan(p []byte) {
	c.size += int64(len(p))
	nl := -1 // offset of the first newline at or after i, or len(p)
	for i := 0; i < len(p); {
		if c.inQuote {
			q := bytes.IndexByte(p[i:], '"')
			if q < 0 {
				return
			}
			c.inQuote = false
			i += q + 1
			continue
		}
		if nl < i {
			if nl = bytes.IndexByte(p[i:], '\n'); nl < 0 {
				nl = len(p)
			} else {
				nl += i
			}
		}
		if q := bytes.IndexByte(p[i:nl], '"'); q >= 0 {
			c.note(p[i : i+q+1])
			c.inQuote = true
			i += q + 1
			continue
		}
		c.note(p[i:nl])
		if nl == len(p) {
			return
		}
		if !c.blank() {
			c.n++
		}
		c.line, c.cr = 0, false
		i = nl + 1
	}
}

// note records bytes of the current record; only its first two matter.
func (c *recordCounter) note(seg []byte) {
	for _, b := range seg {
		if c.line == 2 {
			return
		}
		if c.line == 0 {
			c.cr = b == '\r'
		}
		c.line++
	}
}

// blank reports whether the current record so far is a line encoding/csv
// skips.
func (c *recordCounter) blank() bool { return c.line == 0 || (c.line == 1 && c.cr) }

// records is the count once every byte is scanned: a last record without
// a final newline counts too.
func (c *recordCounter) records() int {
	if c.blank() {
		return c.n
	}
	return c.n + 1
}

// parseNumericCells parses every non-NULL cell of a numeric column.
func parseNumericCells(name string, cells []string, null []bool) ([]float64, error) {
	nums := make([]float64, len(cells))
	for i, s := range cells {
		if null[i] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("dataset: column %q row %d: %w", name, i+2, err)
		}
		nums[i] = v
	}
	return nums, nil
}

// allNumeric reports whether every non-NULL cell parses as a float and at
// least one non-NULL cell exists.
func allNumeric(cells []string, null []bool) bool {
	seenValue := false
	for i, s := range cells {
		if null[i] {
			continue
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err != nil {
			return false
		}
		seenValue = true
	}
	return seenValue
}

func distinctCount(cells []string, null []bool) int {
	seen := make(map[string]struct{})
	for i, s := range cells {
		if !null[i] {
			seen[s] = struct{}{}
		}
	}
	return len(seen)
}

// ReadCSVFile opens and parses a CSV file. See ReadCSV.
func ReadCSVFile(path string, opts InferOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, opts)
}

// WriteCSV serializes the dataset with a header row. NULL cells are written
// as empty strings; numeric cells use the shortest round-trip representation.
// A record whose only field is empty is written as `""`, RFC 4180's quoted
// empty field: encoding/csv would write an empty line, which readers skip.
func (d *Dataset) WriteCSV(w io.Writer) error {
	// csv.NewWriter buffers through bufio.NewWriter(bw), which returns bw
	// itself, so a line written to bw directly lands between its records.
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	if err := cw.Write(d.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, d.NumCols())
	for r := 0; r < d.NumRows(); r++ {
		for j, c := range d.cols {
			switch {
			case c.NullAt(r):
				rec[j] = ""
			case c.Kind == Numeric:
				rec[j] = strconv.FormatFloat(c.NumAt(r), 'g', -1, 64)
			default:
				rec[j] = c.StrAt(r)
			}
		}
		if len(rec) == 1 && rec[0] == "" {
			if _, err := bw.WriteString("\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteCSVFile writes the dataset to a CSV file at path.
func (d *Dataset) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
