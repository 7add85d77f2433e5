// Package dataset implements the relational-table substrate that DataPrism
// profiles, transforms, and feeds to the systems under test.
//
// A Dataset is a columnar table over a fixed schema. Every column has a name,
// a Kind (Numeric, Categorical, or Text), a value vector, and a NULL mask,
// stored as fixed-size chunks (chunk.go). Datasets are value-semantic at the
// API level: transformations operate on copies obtained via Clone, so
// interventions never mutate the original failing dataset.
package dataset

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Kind identifies the type of the values stored in a column.
type Kind int

const (
	// Numeric columns store float64 values.
	Numeric Kind = iota
	// Categorical columns store string values drawn from a small domain.
	Categorical
	// Text columns store free-form strings (reviews, license plates, ...).
	Text
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Column is a single named, typed column with a NULL mask, stored as
// fixed-size chunks (chunk.go). Cells are read through NumAt/StrAt/NullAt
// or chunk-at-a-time through NumChunks/Chunk, and column statistics through
// the cached Rollup; Dataset.NumericValues and StringValues copy out the
// non-NULL values in row order.
//
// Columns and their chunks are shared between datasets after Clone
// (copy-on-write): mutate cells only through Dataset.MutableColumn plus
// MutableChunk, or the Set* methods — never through a Chunk view. See
// cow.go for the contract.
type Column struct {
	Name string
	Kind Kind

	// rows is the column length; csize the rows-per-chunk capacity, with
	// shift/mask the fast-path decomposition for power-of-two sizes
	// (mask < 0 selects the divide path). chunks holds the canonical
	// layout: every chunk has exactly csize rows except the last.
	rows   int
	csize  int
	shift  uint
	mask   int
	chunks []*chunk

	// shared marks the column header as referenced by more than one
	// dataset; the next mutation grant copies the header (cow.go). version
	// counts chunk mutation grants; digest/digestAt cache the content
	// digest (fingerprint.go) and rollup the merged ColumnRollup, both keyed
	// by version.
	shared   atomic.Bool
	version  atomic.Uint64
	digest   atomic.Uint64
	digestAt atomic.Uint64
	rollup   atomic.Pointer[ColumnRollup]
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return c.rows }

// Dataset is a columnar relational table. The zero value is not usable;
// construct with New or NewChunked and the Add*Column methods.
type Dataset struct {
	cols   []*Column
	byName map[string]int
	rows   int
	csize  int

	// sview caches the last assembled deterministic sample view (sample.go),
	// keyed by (cap, seed) and the column pointer/version pairs it was built
	// from, so repeated sampled fits within one discovery pass reuse it.
	sview atomic.Pointer[sampleViewCache]
}

// New returns an empty dataset with no columns and no rows, using the
// default chunk size.
func New() *Dataset { return NewChunked(DefaultChunkSize) }

// NewChunked returns an empty dataset whose columns are stored in chunks of
// the given number of rows. Sizes below 1 fall back to DefaultChunkSize.
// Chunk size affects only copy-on-write and recomputation granularity:
// digests, statistics, and Equal are layout-agnostic.
func NewChunked(chunkSize int) *Dataset {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	return &Dataset{byName: make(map[string]int), csize: chunkSize}
}

// ChunkSize returns the rows-per-chunk capacity of the dataset's columns.
func (d *Dataset) ChunkSize() int { return d.csize }

// NumRows returns the number of tuples in the dataset.
func (d *Dataset) NumRows() int { return d.rows }

// NumCols returns the number of attributes in the dataset.
func (d *Dataset) NumCols() int { return len(d.cols) }

// ColumnNames returns the attribute names in schema order.
func (d *Dataset) ColumnNames() []string {
	names := make([]string, len(d.cols))
	for i, c := range d.cols {
		names[i] = c.Name
	}
	return names
}

// Columns returns the underlying columns in schema order. Callers must not
// mutate the returned slice.
func (d *Dataset) Columns() []*Column { return d.cols }

// Column returns the column with the given name, or nil if absent.
func (d *Dataset) Column(name string) *Column {
	i, ok := d.byName[name]
	if !ok {
		return nil
	}
	return d.cols[i]
}

// addColumn registers a column, enforcing unique names and consistent length.
func (d *Dataset) addColumn(c *Column) error {
	if c.Name == "" {
		return fmt.Errorf("dataset: column name must not be empty")
	}
	if _, dup := d.byName[c.Name]; dup {
		return fmt.Errorf("dataset: duplicate column %q", c.Name)
	}
	if len(d.cols) > 0 && c.Len() != d.rows {
		return fmt.Errorf("dataset: column %q has %d rows, want %d", c.Name, c.Len(), d.rows)
	}
	if len(d.cols) == 0 {
		d.rows = c.Len()
	}
	d.byName[c.Name] = len(d.cols)
	d.cols = append(d.cols, c)
	return nil
}

// AddNumericColumn appends a numeric column. A nil null mask means no NULLs.
func (d *Dataset) AddNumericColumn(name string, vals []float64, null []bool) error {
	if null != nil && len(null) != len(vals) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(vals))
	}
	return d.addColumn(newColumn(name, Numeric, vals, nil, null, d.csize))
}

// AddCategoricalColumn appends a categorical column. A nil null mask means no NULLs.
func (d *Dataset) AddCategoricalColumn(name string, vals []string, null []bool) error {
	if null != nil && len(null) != len(vals) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(vals))
	}
	return d.addColumn(newColumn(name, Categorical, nil, vals, null, d.csize))
}

// AddTextColumn appends a free-text column. A nil null mask means no NULLs.
func (d *Dataset) AddTextColumn(name string, vals []string, null []bool) error {
	if null != nil && len(null) != len(vals) {
		return fmt.Errorf("dataset: column %q null mask has %d entries, want %d", name, len(null), len(vals))
	}
	return d.addColumn(newColumn(name, Text, nil, vals, null, d.csize))
}

// MustAddNumeric is AddNumericColumn that panics on error; for literals in
// tests and generators where the schema is known to be valid.
func (d *Dataset) MustAddNumeric(name string, vals []float64) *Dataset {
	if err := d.AddNumericColumn(name, vals, nil); err != nil {
		panic(err)
	}
	return d
}

// MustAddCategorical is AddCategoricalColumn that panics on error.
func (d *Dataset) MustAddCategorical(name string, vals []string) *Dataset {
	if err := d.AddCategoricalColumn(name, vals, nil); err != nil {
		panic(err)
	}
	return d
}

// MustAddText is AddTextColumn that panics on error.
func (d *Dataset) MustAddText(name string, vals []string) *Dataset {
	if err := d.AddTextColumn(name, vals, nil); err != nil {
		panic(err)
	}
	return d
}

// IsNull reports whether the value at (attr, row) is NULL.
func (d *Dataset) IsNull(attr string, row int) bool {
	c := d.Column(attr)
	return c != nil && c.NullAt(row)
}

// Num returns the numeric value at (attr, row). It panics if the column is
// not numeric; a NULL slot returns NaN.
func (d *Dataset) Num(attr string, row int) float64 {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		panic(fmt.Sprintf("dataset: %q is not a numeric column", attr))
	}
	ci, off := c.chunkOf(row)
	ch := c.chunks[ci]
	if ch.null[off] {
		return math.NaN()
	}
	return ch.nums[off]
}

// Str returns the string value at (attr, row). It panics if the column is
// numeric; a NULL slot returns "".
func (d *Dataset) Str(attr string, row int) string {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		panic(fmt.Sprintf("dataset: %q is not a string column", attr))
	}
	ci, off := c.chunkOf(row)
	ch := c.chunks[ci]
	if ch.null[off] {
		return ""
	}
	return ch.strs[off]
}

// SetNum stores a numeric value, clearing the NULL flag. The write goes
// through the copy-on-write path, copying and dirtying only the chunk
// containing the row, so it never leaks into clones.
func (d *Dataset) SetNum(attr string, row int, v float64) {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		panic(fmt.Sprintf("dataset: %q is not a numeric column", attr))
	}
	c = d.MutableColumn(attr)
	ci, off := c.chunkOf(row)
	w := c.MutableChunk(ci)
	w.Nums[off] = v
	w.Null[off] = false
}

// SetStr stores a string value, clearing the NULL flag. The write goes
// through the copy-on-write path, copying and dirtying only the chunk
// containing the row, so it never leaks into clones.
func (d *Dataset) SetStr(attr string, row int, v string) {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		panic(fmt.Sprintf("dataset: %q is not a string column", attr))
	}
	c = d.MutableColumn(attr)
	ci, off := c.chunkOf(row)
	w := c.MutableChunk(ci)
	w.Strs[off] = v
	w.Null[off] = false
}

// SetNull marks the value at (attr, row) as NULL. The write goes through
// the copy-on-write path, copying and dirtying only the chunk containing
// the row, so it never leaks into clones.
func (d *Dataset) SetNull(attr string, row int) {
	c := d.MutableColumn(attr)
	if c == nil {
		panic(fmt.Sprintf("dataset: no column %q", attr))
	}
	ci, off := c.chunkOf(row)
	w := c.MutableChunk(ci)
	w.Null[off] = true
}

// Clone returns a logically independent copy of the dataset in O(#cols):
// the clone shares the underlying columns copy-on-write. The first mutation
// of a shared column copies its header (O(#chunks) pointers), and each
// mutated chunk is copied individually — a single-attribute, single-chunk
// intervention costs O(chunk size), not O(rows). Transformations always
// clone before mutating, so the source dataset is never altered.
func (d *Dataset) Clone() *Dataset {
	cp := &Dataset{
		cols:   make([]*Column, len(d.cols)),
		byName: make(map[string]int, len(d.byName)),
		rows:   d.rows,
		csize:  d.csize,
	}
	for i, c := range d.cols {
		c.shared.Store(true)
		cp.cols[i] = c
		cp.byName[c.Name] = i
	}
	return cp
}

// SelectRows returns a new dataset containing the rows at the given indices,
// in order. Indices may repeat (used by over-sampling transformations).
func (d *Dataset) SelectRows(idx []int) *Dataset {
	out := NewChunked(d.csize)
	for _, c := range d.cols {
		null := make([]bool, len(idx))
		var nc *Column
		if c.Kind == Numeric {
			nums := make([]float64, len(idx))
			for j, i := range idx {
				ci, off := c.chunkOf(i)
				ch := c.chunks[ci]
				nums[j] = ch.nums[off]
				null[j] = ch.null[off]
			}
			nc = newColumn(c.Name, c.Kind, nums, nil, null, d.csize)
		} else {
			strs := make([]string, len(idx))
			for j, i := range idx {
				ci, off := c.chunkOf(i)
				ch := c.chunks[ci]
				strs[j] = ch.strs[off]
				null[j] = ch.null[off]
			}
			nc = newColumn(c.Name, c.Kind, nil, strs, null, d.csize)
		}
		if err := out.addColumn(nc); err != nil {
			panic(err) // cannot happen: schema mirrors a valid dataset
		}
	}
	return out
}

// Filter returns a new dataset containing the rows for which keep returns true.
func (d *Dataset) Filter(keep func(row int) bool) *Dataset {
	idx := make([]int, 0, d.rows)
	for i := 0; i < d.rows; i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return d.SelectRows(idx)
}

// NumericValues returns a fresh copy of the non-NULL values of a numeric
// column in row order, or nil if the column is missing or not numeric. The
// caller owns the slice and may write or sort it; every call costs O(rows).
func (d *Dataset) NumericValues(attr string) []float64 {
	c := d.Column(attr)
	if c == nil || c.Kind != Numeric {
		return nil
	}
	out := make([]float64, 0, c.rows)
	for _, ch := range c.chunks {
		for i, v := range ch.nums {
			if !ch.null[i] {
				out = append(out, v)
			}
		}
	}
	return out
}

// StringValues returns a fresh copy of the non-NULL values of a categorical
// or text column in row order, or nil if the column is missing or numeric.
// The caller owns the slice; every call costs O(rows).
func (d *Dataset) StringValues(attr string) []string {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		return nil
	}
	out := make([]string, 0, c.rows)
	for _, ch := range c.chunks {
		for i, v := range ch.strs {
			if !ch.null[i] {
				out = append(out, v)
			}
		}
	}
	return out
}

// DistinctStrings returns the sorted distinct non-NULL values of a string
// column. The slice is the cached roll-up's and must not be mutated by the
// caller. Served from the per-chunk domain counts in O(#chunks) merges — no
// full vector is materialized.
func (d *Dataset) DistinctStrings(attr string) []string {
	c := d.Column(attr)
	if c == nil || c.Kind == Numeric {
		return []string{}
	}
	return c.Rollup().Distinct
}

// NullCount returns the number of NULL slots in the column, served from the
// per-chunk roll-ups in O(#chunks).
func (d *Dataset) NullCount(attr string) int {
	c := d.Column(attr)
	if c == nil {
		return 0
	}
	return c.Rollup().Nulls
}

// SchemaEqual reports whether two datasets share names, order, and kinds.
// Chunk layout is not part of the schema.
func (d *Dataset) SchemaEqual(other *Dataset) bool {
	if len(d.cols) != len(other.cols) {
		return false
	}
	for i, c := range d.cols {
		if other.cols[i].Name != c.Name || other.cols[i].Kind != c.Kind {
			return false
		}
	}
	return true
}

// Equal reports whether two datasets have identical schema and cell values.
// NaN numeric cells compare equal to NaN. The comparison is chunk-layout-
// agnostic: datasets with different chunk sizes but identical contents
// compare equal.
func (d *Dataset) Equal(other *Dataset) bool {
	if !d.SchemaEqual(other) || d.rows != other.rows {
		return false
	}
	for i, c := range d.cols {
		if !c.contentEqual(other.cols[i]) {
			return false
		}
	}
	return true
}

// contentEqual compares cell values across two columns of equal length with
// a dual chunk cursor, so the chunk boundaries of the two sides need not
// align. CoW-shared chunks compare pointer-equal and skip the cell walk.
func (c *Column) contentEqual(o *Column) bool {
	if c == o {
		return true
	}
	var ci, co, offC, offO int
	for done := 0; done < c.rows; {
		chc, cho := c.chunks[ci], o.chunks[co]
		if chc == cho && offC == 0 && offO == 0 {
			done += chc.len()
			ci, co = ci+1, co+1
			continue
		}
		n := chc.len() - offC
		if m := cho.len() - offO; m < n {
			n = m
		}
		for k := 0; k < n; k++ {
			if chc.null[offC+k] != cho.null[offO+k] {
				return false
			}
			if chc.null[offC+k] {
				continue
			}
			if c.Kind == Numeric {
				a, b := chc.nums[offC+k], cho.nums[offO+k]
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					return false
				}
			} else if chc.strs[offC+k] != cho.strs[offO+k] {
				return false
			}
		}
		done += n
		offC += n
		offO += n
		if offC == chc.len() {
			ci, offC = ci+1, 0
		}
		if offO == cho.len() {
			co, offO = co+1, 0
		}
	}
	return true
}

// String renders a short human-readable preview (schema plus up to 5 rows).
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset(%d rows, %d cols)\n", d.rows, d.NumCols())
	for _, c := range d.cols {
		fmt.Fprintf(&b, "  %s %s", c.Name, c.Kind)
		n := c.Len()
		if n > 5 {
			n = 5
		}
		b.WriteString(" [")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			if c.NullAt(i) {
				b.WriteString("NULL")
			} else if c.Kind == Numeric {
				fmt.Fprintf(&b, "%g", c.NumAt(i))
			} else {
				fmt.Fprintf(&b, "%q", c.StrAt(i))
			}
		}
		if c.Len() > 5 {
			b.WriteString(", …")
		}
		b.WriteString("]\n")
	}
	return b.String()
}
