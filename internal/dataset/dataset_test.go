package dataset

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Dataset {
	d := New()
	d.MustAddCategorical("gender", []string{"F", "M", "M", "F"})
	d.MustAddNumeric("age", []float64{45, 40, 60, 22})
	d.MustAddText("name", []string{"Shanice", "DeShawn", "Malik", "Dustin"})
	return d
}

func TestNewEmpty(t *testing.T) {
	d := New()
	if d.NumRows() != 0 || d.NumCols() != 0 {
		t.Fatalf("empty dataset has %d rows, %d cols", d.NumRows(), d.NumCols())
	}
}

func TestAddColumnsAndAccess(t *testing.T) {
	d := sample()
	if d.NumRows() != 4 || d.NumCols() != 3 {
		t.Fatalf("got %d rows, %d cols; want 4, 3", d.NumRows(), d.NumCols())
	}
	if got := d.Str("gender", 0); got != "F" {
		t.Errorf("Str(gender,0) = %q, want F", got)
	}
	if got := d.Num("age", 2); got != 60 {
		t.Errorf("Num(age,2) = %g, want 60", got)
	}
	names := d.ColumnNames()
	if len(names) != 3 || names[0] != "gender" || names[2] != "name" {
		t.Errorf("ColumnNames = %v", names)
	}
}

func TestAddColumnErrors(t *testing.T) {
	d := New()
	d.MustAddNumeric("a", []float64{1, 2})
	if err := d.AddNumericColumn("a", []float64{3, 4}, nil); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := d.AddNumericColumn("b", []float64{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := d.AddNumericColumn("", []float64{1, 2}, nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := d.AddNumericColumn("c", []float64{1, 2}, []bool{true}); err == nil {
		t.Error("bad null mask accepted")
	}
}

func TestNullHandling(t *testing.T) {
	d := New()
	if err := d.AddNumericColumn("x", []float64{1, 2, 3}, []bool{false, true, false}); err != nil {
		t.Fatal(err)
	}
	if !d.IsNull("x", 1) || d.IsNull("x", 0) {
		t.Error("IsNull wrong")
	}
	if !math.IsNaN(d.Num("x", 1)) {
		t.Error("NULL numeric cell should read as NaN")
	}
	if d.NullCount("x") != 1 {
		t.Errorf("NullCount = %d, want 1", d.NullCount("x"))
	}
	d.SetNum("x", 1, 9)
	if d.IsNull("x", 1) || d.Num("x", 1) != 9 {
		t.Error("SetNum should clear NULL")
	}
	d.SetNull("x", 0)
	if !d.IsNull("x", 0) {
		t.Error("SetNull failed")
	}
	if got := d.NumericValues("x"); len(got) != 2 {
		t.Errorf("NumericValues skips NULLs: got %v", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sample()
	cp := d.Clone()
	cp.SetStr("gender", 0, "M")
	cp.SetNum("age", 0, 99)
	cp.SetNull("name", 1)
	if d.Str("gender", 0) != "F" || d.Num("age", 0) != 45 || d.IsNull("name", 1) {
		t.Error("Clone shares storage with original")
	}
	if !d.Clone().Equal(d) {
		t.Error("Clone not Equal to original")
	}
}

func TestSelectRowsAndFilter(t *testing.T) {
	d := sample()
	s := d.SelectRows([]int{2, 0, 2})
	if s.NumRows() != 3 {
		t.Fatalf("SelectRows rows = %d", s.NumRows())
	}
	if s.Str("name", 0) != "Malik" || s.Str("name", 1) != "Shanice" || s.Str("name", 2) != "Malik" {
		t.Error("SelectRows order/repeat wrong")
	}
	f := d.Filter(func(r int) bool { return d.Num("age", r) >= 40 })
	if f.NumRows() != 3 {
		t.Errorf("Filter rows = %d, want 3", f.NumRows())
	}
}

func TestDistinctStrings(t *testing.T) {
	d := sample()
	got := d.DistinctStrings("gender")
	if len(got) != 2 || got[0] != "F" || got[1] != "M" {
		t.Errorf("DistinctStrings = %v", got)
	}
}

func TestEqual(t *testing.T) {
	a, b := sample(), sample()
	if !a.Equal(b) {
		t.Error("identical datasets not Equal")
	}
	b.SetNum("age", 3, 23)
	if a.Equal(b) {
		t.Error("differing datasets Equal")
	}
	c := sample()
	c.SetNull("age", 0)
	if a.Equal(c) {
		t.Error("NULL difference not detected")
	}
}

func TestStringPreview(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"4 rows", "gender categorical", "age numeric", "name text"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in %q", want, s)
		}
	}
}

// Property: for any permutation of row indices, SelectRows preserves
// multisets of values and Clone/Equal round-trips.
func TestSelectRowsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		d := New().MustAddNumeric("v", vals)
		perm := rng.Perm(n)
		s := d.SelectRows(perm)
		sumA, sumB := 0.0, 0.0
		for _, v := range d.NumericValues("v") {
			sumA += v
		}
		for _, v := range s.NumericValues("v") {
			sumB += v
		}
		return math.Abs(sumA-sumB) < 1e-9 && s.NumRows() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
