package dataset

import (
	"fmt"
	"math/rand"
	"testing"
)

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
		if got := c.Eval(d, r); got != w {
			t.Errorf("row %d: EqStr = %v, want %v", r, got, w)
		}
	}
	ne := Clause{Attr: "gender", Op: Ne, StrVal: "F"}
	if ne.Eval(d, 0) || !ne.Eval(d, 1) {
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
		{CmpNum("age", Lt, 41), 0, false},
		{CmpNum("age", Lt, 41), 1, true},
		{CmpNum("age", Le, 40), 1, true},
		{CmpNum("age", Gt, 59), 2, true},
		{CmpNum("age", Ge, 60), 2, true},
		{Clause{Attr: "age", Op: Eq, NumVal: 22, IsNum: true}, 3, true},
		{Clause{Attr: "age", Op: Ne, NumVal: 22, IsNum: true}, 3, false},
	}
	for _, tc := range cases {
		if got := tc.c.Eval(d, tc.row); got != tc.want {
			t.Errorf("%s row %d = %v, want %v", tc.c, tc.row, got, tc.want)
		}
	}
}

func TestClauseNullOps(t *testing.T) {
	d := predData()
	isNull := Clause{Attr: "zip", Op: IsNull}
	notNull := Clause{Attr: "zip", Op: NotNull}
	if !isNull.Eval(d, 2) || isNull.Eval(d, 0) {
		t.Error("IsNull wrong")
	}
	if notNull.Eval(d, 2) || !notNull.Eval(d, 0) {
		t.Error("NotNull wrong")
	}
	// Comparison against a NULL cell is false.
	if EqStr("zip", "01004").Eval(d, 2) {
		t.Error("Eq against NULL should be false")
	}
}

func TestClauseMissingColumn(t *testing.T) {
	d := predData()
	if EqStr("nope", "x").Eval(d, 0) {
		t.Error("clause on missing column should be false")
	}
}

func TestPredicateConjunction(t *testing.T) {
	d := predData()
	p := And(EqStr("gender", "F"), CmpNum("age", Ge, 30))
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
	a := And(EqStr("gender", "F"), CmpNum("age", Ge, 30))
	b := And(CmpNum("age", Ge, 30), EqStr("gender", "F"))
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
		CmpNum("n", Lt, 5), CmpNum("n", Ge, 3), {Attr: "n", Op: NotNull}, EqStr("nosuch", "x"),
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
				if p.Eval(d, r) {
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
	if got := CmpNum("age", Ge, 30).String(); got != "age >= 30" {
		t.Errorf("String = %q", got)
	}
	if got := (Clause{Attr: "zip", Op: IsNull}).String(); got != "zip IS NULL" {
		t.Errorf("String = %q", got)
	}
}
