package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

// eval reports whether the clause holds for row r of d: the per-row
// reference that Mask and Count are checked against.
func (c Clause) eval(d *Dataset, r int) bool {
	col := d.Column(c.Attr)
	if col == nil {
		return false
	}
	switch c.Op {
	case IsNull:
		return col.NullAt(r)
	case NotNull:
		return !col.NullAt(r)
	}
	if col.NullAt(r) {
		return false
	}
	if col.Kind == Numeric {
		v := col.NumAt(r)
		switch c.Op {
		case Eq:
			return v == c.NumVal
		case Ne:
			return v != c.NumVal
		case Lt:
			return v < c.NumVal
		case Le:
			return v <= c.NumVal
		case Gt:
			return v > c.NumVal
		case Ge:
			return v >= c.NumVal
		}
		return false
	}
	v := col.StrAt(r)
	switch c.Op {
	case Eq:
		return v == c.StrVal
	case Ne:
		return v != c.StrVal
	}
	return false
}

// eval reports whether all clauses of p hold for row r of d.
func (p Predicate) eval(d *Dataset, r int) bool {
	for _, c := range p.Clauses {
		if !c.eval(d, r) {
			return false
		}
	}
	return true
}

func predData() *Dataset {
	d := New()
	d.MustAddCategorical("gender", []string{"F", "M", "M", "F", "F"})
	d.MustAddNumeric("age", []float64{45, 40, 60, 22, 31})
	if err := d.AddCategoricalColumn("zip", []string{"01004", "01004", "", "01009", "01101"},
		[]bool{false, false, true, false, false}); err != nil {
		panic(err)
	}
	return d
}

func TestClauseEvalString(t *testing.T) {
	d := predData()
	c := EqStr("gender", "F")
	want := []bool{true, false, false, true, true}
	for r, w := range want {
		if got := c.eval(d, r); got != w {
			t.Errorf("row %d: EqStr = %v, want %v", r, got, w)
		}
	}
	ne := Clause{Attr: "gender", Op: Ne, StrVal: "F"}
	if ne.eval(d, 0) || !ne.eval(d, 1) {
		t.Error("Ne on string wrong")
	}
}

func TestClauseEvalNumeric(t *testing.T) {
	d := predData()
	cases := []struct {
		c    Clause
		row  int
		want bool
	}{
		{Clause{Attr: "age", Op: Lt, NumVal: 41, IsNum: true}, 0, false},
		{Clause{Attr: "age", Op: Lt, NumVal: 41, IsNum: true}, 1, true},
		{Clause{Attr: "age", Op: Le, NumVal: 40, IsNum: true}, 1, true},
		{Clause{Attr: "age", Op: Gt, NumVal: 59, IsNum: true}, 2, true},
		{Clause{Attr: "age", Op: Ge, NumVal: 60, IsNum: true}, 2, true},
		{Clause{Attr: "age", Op: Eq, NumVal: 22, IsNum: true}, 3, true},
		{Clause{Attr: "age", Op: Ne, NumVal: 22, IsNum: true}, 3, false},
	}
	for _, tc := range cases {
		if got := tc.c.eval(d, tc.row); got != tc.want {
			t.Errorf("%s row %d = %v, want %v", tc.c, tc.row, got, tc.want)
		}
	}
}

func TestClauseNullOps(t *testing.T) {
	d := predData()
	isNull := Clause{Attr: "zip", Op: IsNull}
	notNull := Clause{Attr: "zip", Op: NotNull}
	if !isNull.eval(d, 2) || isNull.eval(d, 0) {
		t.Error("IsNull wrong")
	}
	if notNull.eval(d, 2) || !notNull.eval(d, 0) {
		t.Error("NotNull wrong")
	}
	// Comparison against a NULL cell is false.
	if EqStr("zip", "01004").eval(d, 2) {
		t.Error("Eq against NULL should be false")
	}
}

func TestClauseMissingColumn(t *testing.T) {
	d := predData()
	if EqStr("nope", "x").eval(d, 0) {
		t.Error("clause on missing column should be false")
	}
}

func TestPredicateConjunction(t *testing.T) {
	d := predData()
	p := And(EqStr("gender", "F"), Clause{Attr: "age", Op: Ge, NumVal: 30, IsNum: true})
	rows := p.MatchingRows(d)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 4 {
		t.Errorf("MatchingRows = %v, want [0 4]", rows)
	}
	if sel := p.Selectivity(d); sel != 0.4 {
		t.Errorf("Selectivity = %g, want 0.4", sel)
	}
	attrs := p.Attributes()
	if len(attrs) != 2 || attrs[0] != "age" || attrs[1] != "gender" {
		t.Errorf("Attributes = %v", attrs)
	}
}

func TestPredicateEmptyAndKey(t *testing.T) {
	d := predData()
	p := And()
	if p.Selectivity(d) != 1 {
		t.Error("empty predicate should match all rows")
	}
	if p.String() != "TRUE" {
		t.Errorf("String = %q", p.String())
	}
	a := And(EqStr("gender", "F"), Clause{Attr: "age", Op: Ge, NumVal: 30, IsNum: true})
	b := And(Clause{Attr: "age", Op: Ge, NumVal: 30, IsNum: true}, EqStr("gender", "F"))
	if a.Key() != b.Key() {
		t.Error("Key should be order-insensitive")
	}
	if a.String() == b.String() {
		t.Error("String preserves clause order (sanity check on test itself)")
	}
}

func TestPredicateSelectivityEmptyDataset(t *testing.T) {
	d := New()
	p := And(EqStr("g", "x"))
	if p.Selectivity(d) != 0 {
		t.Error("selectivity on empty dataset should be 0")
	}
}

// TestPredicateCountMatchesEval checks that the chunk-windowed Count
// agrees with per-row Eval and with Mask at chunk sizes 1, 7, 16 and 64Ki,
// for conjunctions of zero to three clauses over numeric and categorical
// columns with NULLs, including a clause on a missing column.
func TestPredicateCountMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const rows = 1000
	nums, strs, null := make([]float64, rows), make([]string, rows), make([]bool, rows)
	for i := range nums {
		nums[i] = float64(rng.Intn(10))
		strs[i] = fmt.Sprintf("v%d", rng.Intn(4))
		null[i] = rng.Intn(7) == 0
	}
	clauses := []Clause{
		EqStr("s", "v1"), {Attr: "s", Op: Ne, StrVal: "v2"}, {Attr: "s", Op: IsNull},
		Clause{Attr: "n", Op: Lt, NumVal: 5, IsNum: true}, Clause{Attr: "n", Op: Ge, NumVal: 3, IsNum: true}, {Attr: "n", Op: NotNull}, EqStr("nosuch", "x"),
	}
	for _, csize := range []int{1, 7, 16, DefaultChunkSize} {
		d := NewChunked(csize)
		if err := d.AddNumericColumn("n", nums, null); err != nil {
			t.Fatal(err)
		}
		if err := d.AddCategoricalColumn("s", strs, nil); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			p := And()
			for k := rng.Intn(4); k > 0; k-- {
				p.Clauses = append(p.Clauses, clauses[rng.Intn(len(clauses))])
			}
			want, masked := 0, 0
			for r, ok := range p.Mask(d, nil) {
				if p.eval(d, r) {
					want++
				}
				if ok {
					masked++
				}
			}
			if got := p.Count(d); got != want || masked != want {
				t.Fatalf("chunk size %d: %s: Count %d, Mask %d, Eval %d", csize, p, got, masked, want)
			}
		}
	}
}

func TestClauseString(t *testing.T) {
	if got := EqStr("gender", "F").String(); got != `gender = "F"` {
		t.Errorf("String = %q", got)
	}
	if got := (Clause{Attr: "age", Op: Ge, NumVal: 30, IsNum: true}).String(); got != "age >= 30" {
		t.Errorf("String = %q", got)
	}
	if got := (Clause{Attr: "zip", Op: IsNull}).String(); got != "zip IS NULL" {
		t.Errorf("String = %q", got)
	}
}
