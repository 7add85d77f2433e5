package transform

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pattern"
	"repro/internal/profile"
)

// chunkedNums builds a numeric single-column dataset with csize-row chunks.
func chunkedNums(t *testing.T, vals []float64, csize int) *dataset.Dataset {
	t.Helper()
	d := dataset.NewChunked(csize)
	if err := d.AddNumericColumn("v", vals, nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWinsorizeSparseSkipsCleanChunks: with violations confined to one
// chunk, Winsorize must leave every clean chunk's backing storage shared
// with the source dataset — no copies, no dirtying.
func TestWinsorizeSparseSkipsCleanChunks(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 0.5
	}
	vals[250] = 9 // chunk 2 of 10
	d := chunkedNums(t, vals, 100)
	tr := &Winsorize{Profile: &profile.DomainNumeric{Attr: "v", Lo: 0, Hi: 1}}
	out, err := tr.Apply(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Num("v", 250); got != 1 {
		t.Fatalf("violating cell = %v, want 1", got)
	}
	if got := d.Num("v", 250); got != 9 {
		t.Fatalf("source mutated: %v", got)
	}
	sc, oc := d.Column("v"), out.Column("v")
	for k := 0; k < sc.NumChunks(); k++ {
		same := &sc.Chunk(k).Nums[0] == &oc.Chunk(k).Nums[0]
		if k == 2 && same {
			t.Fatal("dirty chunk 2 still shares storage with the source")
		}
		if k != 2 && !same {
			t.Fatalf("clean chunk %d was copied", k)
		}
	}
}

// TestWinsorizeDenseCorrect: with violations in every chunk, the bulk
// privatization path must produce the same result as cell-by-cell clamping
// and leave the source untouched.
func TestWinsorizeDenseCorrect(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i) / 500 // 0..2: upper half violates Hi=1
	}
	d := chunkedNums(t, vals, 64)
	d.Rollup("v") // warm chunk caches so the dirtiness gate reads them
	tr := &Winsorize{Profile: &profile.DomainNumeric{Attr: "v", Lo: 0.1, Hi: 1}}
	out, err := tr.Apply(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		want := vals[i]
		if want < 0.1 {
			want = 0.1
		} else if want > 1 {
			want = 1
		}
		if got := out.Num("v", i); got != want {
			t.Fatalf("row %d: %v, want %v", i, got, want)
		}
		if got := d.Num("v", i); got != vals[i] {
			t.Fatalf("source row %d mutated: %v", i, got)
		}
	}
	if d.Fingerprint() == out.Fingerprint() {
		t.Fatal("fingerprints equal after divergence")
	}
}

// TestLinearMapDensePrivatization: LinearMap rewrites everything; the result
// must be correct and fully unshared from the source.
func TestLinearMapDensePrivatization(t *testing.T) {
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i)
	}
	d := chunkedNums(t, vals, 64)
	tr := &LinearMap{Profile: &profile.DomainNumeric{Attr: "v", Lo: 0, Hi: 1}}
	out, err := tr.Apply(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Num("v", 511); got != 1 {
		t.Fatalf("max maps to %v, want 1", got)
	}
	if got := out.Num("v", 0); got != 0 {
		t.Fatalf("min maps to %v, want 0", got)
	}
	sc, oc := d.Column("v"), out.Column("v")
	for k := 0; k < sc.NumChunks(); k++ {
		if &sc.Chunk(k).Nums[0] == &oc.Chunk(k).Nums[0] {
			t.Fatalf("chunk %d still shares storage after a dense rewrite", k)
		}
		if got := d.Num("v", k*64); got != vals[k*64] {
			t.Fatalf("source chunk %d mutated", k)
		}
	}
}

// TestConformTextSparseSkipsCleanChunks mirrors the Winsorize sparse test
// for the pattern-conforming transform.
func TestConformTextSparseSkipsCleanChunks(t *testing.T) {
	vals := make([]string, 400)
	for i := range vals {
		vals[i] = "12345"
	}
	vals[150] = "bad" // chunk 1 of 4
	d := dataset.NewChunked(100)
	if err := d.AddTextColumn("z", vals, nil); err != nil {
		t.Fatal(err)
	}
	p := &profile.DomainText{Attr: "z", Pattern: pattern.Learn([]string{"12345", "67890"})}
	tr := &ConformText{Profile: p}
	out, err := tr.Apply(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Str("z", 150); strings.Contains(got, "bad") {
		t.Fatalf("non-conforming cell untouched: %q", got)
	}
	sc, oc := d.Column("z"), out.Column("z")
	for k := 0; k < sc.NumChunks(); k++ {
		same := &sc.Chunk(k).Strs[0] == &oc.Chunk(k).Strs[0]
		if k == 1 && same {
			t.Fatal("dirty chunk 1 still shares storage with the source")
		}
		if k != 1 && !same {
			t.Fatalf("clean chunk %d was copied", k)
		}
	}
}
