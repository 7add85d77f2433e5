package dataset

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is a comparison operator inside a predicate clause.
type Op int

const (
	// Eq matches cells equal to the clause value.
	Eq Op = iota
	// Ne matches cells different from the clause value.
	Ne
	// Lt matches numeric cells strictly below the clause value.
	Lt
	// Le matches numeric cells at or below the clause value.
	Le
	// Gt matches numeric cells strictly above the clause value.
	Gt
	// Ge matches numeric cells at or above the clause value.
	Ge
	// IsNull matches NULL cells regardless of value.
	IsNull
	// NotNull matches non-NULL cells regardless of value.
	NotNull
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case IsNull:
		return "IS NULL"
	case NotNull:
		return "IS NOT NULL"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Clause is a single comparison Attr Op Value. For string columns only
// Eq/Ne/IsNull/NotNull are meaningful; numeric columns support all operators.
type Clause struct {
	Attr   string
	Op     Op
	StrVal string
	NumVal float64
	IsNum  bool
}

// EqStr builds an equality clause on a string column.
func EqStr(attr, val string) Clause { return Clause{Attr: attr, Op: Eq, StrVal: val} }

// String renders the clause, e.g. `gender = "F"` or `age >= 30`.
func (c Clause) String() string {
	switch c.Op {
	case IsNull, NotNull:
		return fmt.Sprintf("%s %s", c.Attr, c.Op)
	}
	if c.IsNum {
		return fmt.Sprintf("%s %s %s", c.Attr, c.Op, strconv.FormatFloat(c.NumVal, 'g', -1, 64))
	}
	return fmt.Sprintf("%s %s %q", c.Attr, c.Op, c.StrVal)
}

// Predicate is a conjunction of clauses — the selection predicate P used by
// Selectivity profiles (Figure 1 row 6 of the paper).
type Predicate struct {
	Clauses []Clause
}

// And builds a predicate from the given clauses.
func And(clauses ...Clause) Predicate { return Predicate{Clauses: clauses} }

// Attributes returns the sorted distinct attributes the predicate mentions.
func (p Predicate) Attributes() []string {
	seen := make(map[string]struct{})
	for _, c := range p.Clauses {
		seen[c.Attr] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Mask evaluates the predicate column-at-a-time: the mask starts all true
// and each clause ANDs its column in, iterating chunk-at-a-time with the
// operator dispatch hoisted out of the row loop. buf is reused when it has
// sufficient capacity, so selectivity profiling over many predicates
// allocates once. The result is row-for-row identical to calling Eval per
// row, for any chunk layout.
func (p Predicate) Mask(d *Dataset, buf []bool) []bool {
	n := d.NumRows()
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]bool, n)
	}
	for i := range buf {
		buf[i] = true
	}
	for _, c := range p.Clauses {
		c.maskAnd(d, buf)
	}
	return buf
}

// maskAnd ANDs the clause into mask, one chunk-windowed pass per clause.
func (c Clause) maskAnd(d *Dataset, mask []bool) {
	col := d.Column(c.Attr)
	if col == nil {
		for i := range mask {
			mask[i] = false
		}
		return
	}
	for k := 0; k < col.NumChunks(); k++ {
		w := col.Chunk(k)
		c.maskAndChunk(col.Kind, w, mask[w.Start:w.Start+w.Len()])
	}
}

// maskAndChunk ANDs the clause into mask, the window covering chunk w.
func (c Clause) maskAndChunk(kind Kind, w ChunkView, mask []bool) {
	null := w.Null
	switch c.Op {
	case IsNull:
		for i := range mask {
			mask[i] = mask[i] && null[i]
		}
		return
	case NotNull:
		for i := range mask {
			mask[i] = mask[i] && !null[i]
		}
		return
	}
	if kind == Numeric {
		v := c.NumVal
		nums := w.Nums
		switch c.Op {
		case Eq:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && nums[i] == v
			}
		case Ne:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && nums[i] != v
			}
		case Lt:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && nums[i] < v
			}
		case Le:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && nums[i] <= v
			}
		case Gt:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && nums[i] > v
			}
		case Ge:
			for i := range mask {
				mask[i] = mask[i] && !null[i] && nums[i] >= v
			}
		default:
			for i := range mask {
				mask[i] = false
			}
		}
		return
	}
	v := c.StrVal
	strs := w.Strs
	switch c.Op {
	case Eq:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && strs[i] == v
		}
	case Ne:
		for i := range mask {
			mask[i] = mask[i] && !null[i] && strs[i] != v
		}
	default:
		for i := range mask {
			mask[i] = false
		}
	}
}

// Count returns the number of rows satisfying the predicate. It ANDs the
// clauses one chunk window at a time into a scratch mask of at most one
// chunk, so its cost in memory does not grow with the row count. Every
// column of a dataset shares its chunk layout, so window k is chunk k of
// each clause's column.
func (p Predicate) Count(d *Dataset) int {
	rows := d.NumRows()
	mask := make([]bool, min(rows, d.csize))
	n := 0
	for start, k := 0, 0; start < rows; start, k = start+d.csize, k+1 {
		w := mask[:min(d.csize, rows-start)]
		for i := range w {
			w[i] = true
		}
		for _, c := range p.Clauses {
			col := d.Column(c.Attr)
			if col == nil {
				return 0
			}
			c.maskAndChunk(col.Kind, col.Chunk(k), w)
		}
		for _, ok := range w {
			if ok {
				n++
			}
		}
	}
	return n
}

// Selectivity returns the fraction of rows satisfying the predicate.
// An empty dataset has selectivity 0.
func (p Predicate) Selectivity(d *Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	return float64(p.Count(d)) / float64(d.NumRows())
}

// MatchingRows returns the indices of rows satisfying the predicate.
func (p Predicate) MatchingRows(d *Dataset) []int {
	mask := p.Mask(d, nil)
	var idx []int
	for r, ok := range mask {
		if ok {
			idx = append(idx, r)
		}
	}
	return idx
}

// String renders the predicate as clause ∧ clause ∧ …
func (p Predicate) String() string {
	if len(p.Clauses) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}

// Key returns a canonical identity string: clauses sorted so that logically
// identical predicates built in different orders compare equal.
func (p Predicate) Key() string {
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}
