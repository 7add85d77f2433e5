package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// nullTokens are cell spellings interpreted as NULL on import.
var nullTokens = map[string]bool{"": true, "null": true, "NULL": true, "NA": true, "n/a": true, "N/A": true}

// InferOptions controls CSV type inference.
type InferOptions struct {
	// MaxCategorical is the largest distinct-value count (relative to rows)
	// for which a string column is classified Categorical rather than Text.
	// Expressed as an absolute cap; 0 means the default of 64.
	MaxCategorical int
	// TextColumns forces the named columns to Text regardless of inference.
	TextColumns []string
	// Kinds forces the named columns to exact kinds, bypassing inference
	// entirely for them. A column forced Numeric whose cells do not parse is
	// an error. A reader that knows the writer's schema uses this so string
	// columns whose values happen to look numeric (e.g. "-1"/"1" class
	// labels) do not silently change type on the way back in.
	Kinds map[string]Kind
	// ChunkSize sets the rows-per-chunk capacity of the parsed dataset's
	// columns; 0 means DefaultChunkSize. Chunk size affects only
	// copy-on-write and recomputation granularity — the parsed contents,
	// digests, and statistics are layout-agnostic.
	ChunkSize int
}

// ReadCSV parses CSV data whose first record is the header, inferring column
// kinds: a column is Numeric if every non-NULL cell parses as a float,
// Categorical if it has few distinct values, and Text otherwise.
func ReadCSV(r io.Reader, opts InferOptions) (*Dataset, error) {
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
	maxCat := opts.MaxCategorical
	if maxCat == 0 {
		maxCat = 64
	}
	forcedText := make(map[string]bool, len(opts.TextColumns))
	for _, n := range opts.TextColumns {
		forcedText[n] = true
	}

	csize := opts.ChunkSize
	if csize == 0 {
		csize = DefaultChunkSize
	}
	d := NewChunked(csize)
	for j, name := range header {
		cells := make([]string, len(rows))
		null := make([]bool, len(rows))
		for i, rec := range rows {
			cells[i] = rec[j]
			null[i] = nullTokens[strings.TrimSpace(rec[j])]
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
			} else {
				if err := d.addColumn(newColumn(name, forced, nil, cells, null, csize)); err != nil {
					return nil, err
				}
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
		if forcedText[name] || distinctCount(cells, null) > maxCat {
			kind = Text
		}
		if err := d.addColumn(newColumn(name, kind, nil, cells, null, csize)); err != nil {
			return nil, err
		}
	}
	return d, nil
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
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
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
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
