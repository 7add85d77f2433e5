package dataset

import (
	"bytes"
	"path/filepath"
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
	d, err := ReadCSV(strings.NewReader(sampleCSV), InferOptions{MaxCategorical: 3, TextColumns: []string{"bio"}})
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
	// name has 5 distinct values > MaxCategorical=3 → Text
	if d.Column("name").Kind != Text {
		t.Errorf("name should infer Text, got %v", d.Column("name").Kind)
	}
	if !d.IsNull("zip", 2) {
		t.Error("empty zip cell should be NULL")
	}
	if d.Num("age", 0) != 45 {
		t.Error("numeric parse wrong")
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
	d, err := ReadCSV(strings.NewReader(sampleCSV), InferOptions{MaxCategorical: 3, TextColumns: []string{"bio"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, InferOptions{MaxCategorical: 3, TextColumns: []string{"bio"}})
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
