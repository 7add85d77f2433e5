package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refDataset is built fresh from raw value slices — the deep-copy reference
// the CoW implementation is compared against.
func refDataset(nums [][]float64, strs [][]string, nulls [][]bool) *Dataset {
	d := New()
	for i, vs := range nums {
		if err := d.AddNumericColumn(fmt.Sprintf("n%d", i), append([]float64(nil), vs...), append([]bool(nil), nulls[i]...)); err != nil {
			panic(err)
		}
	}
	for i, vs := range strs {
		if err := d.AddCategoricalColumn(fmt.Sprintf("s%d", i), append([]string(nil), vs...), append([]bool(nil), nulls[len(nums)+i]...)); err != nil {
			panic(err)
		}
	}
	return d
}

// TestCoWPropertyRandomMutations runs randomized mutation sequences against
// a shadow deep-copy model: after every operation the CoW dataset must match
// the model cell for cell, the source dataset must be unchanged (no aliasing
// leaks through shared columns), and the incremental fingerprint must equal
// the from-scratch recomputation.
func TestCoWPropertyRandomMutations(t *testing.T) {
	const rows, numCols, strCols = 40, 3, 3
	levels := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))

		// Shadow model: raw slices mutated by plain deep-copy semantics.
		nums := make([][]float64, numCols)
		strs := make([][]string, strCols)
		nulls := make([][]bool, numCols+strCols)
		for c := range nums {
			nums[c] = make([]float64, rows)
			nulls[c] = make([]bool, rows)
			for r := range nums[c] {
				nums[c][r] = rng.NormFloat64()
				nulls[c][r] = rng.Float64() < 0.1
			}
		}
		for c := range strs {
			strs[c] = make([]string, rows)
			nulls[numCols+c] = make([]bool, rows)
			for r := range strs[c] {
				strs[c][r] = levels[rng.Intn(len(levels))]
				nulls[numCols+c][r] = rng.Float64() < 0.1
			}
		}

		// Cycle through chunk layouts, including single-row chunks and the
		// single-chunk default; all comparisons below are layout-agnostic.
		csizes := []int{1, 7, 16, rows - 1, rows, rows + 1, DefaultChunkSize}
		src := refDataset(nums, strs, nulls).Rechunk(csizes[trial%len(csizes)])
		srcRef := refDataset(nums, strs, nulls)
		srcFP := src.Fingerprint() // warm the digest caches before cloning

		// Mutate a chain of clones; the model tracks the latest clone only.
		cur := src.Clone()
		model := func() *Dataset { return refDataset(nums, strs, nulls) }
		for step := 0; step < 30; step++ {
			switch rng.Intn(5) {
			case 0: // SetNum
				c, r := rng.Intn(numCols), rng.Intn(rows)
				v := rng.NormFloat64()
				cur.SetNum(fmt.Sprintf("n%d", c), r, v)
				nums[c][r] = v
				nulls[c][r] = false
			case 1: // SetStr
				c, r := rng.Intn(strCols), rng.Intn(rows)
				v := levels[rng.Intn(len(levels))]
				cur.SetStr(fmt.Sprintf("s%d", c), r, v)
				strs[c][r] = v
				nulls[numCols+c][r] = false
			case 2: // SetNull
				c, r := rng.Intn(numCols+strCols), rng.Intn(rows)
				name := fmt.Sprintf("n%d", c)
				if c >= numCols {
					name = fmt.Sprintf("s%d", c-numCols)
				}
				cur.SetNull(name, r)
				nulls[c][r] = true
			case 3: // bulk write through MutableColumn + MutableChunk
				c := rng.Intn(numCols)
				mc := cur.MutableColumn(fmt.Sprintf("n%d", c))
				for k := 0; k < mc.NumChunks(); k++ {
					w := mc.MutableChunk(k)
					for r := range w.Nums {
						if !w.Null[r] {
							w.Nums[r] += 1
						}
					}
				}
				for r := range nums[c] {
					if !nulls[c][r] {
						nums[c][r] += 1
					}
				}
			case 4: // re-clone: the chain continues from a fresh CoW copy
				cur = cur.Clone()
			}

			if !cur.Equal(model()) {
				t.Fatalf("trial %d step %d: CoW dataset diverged from reference", trial, step)
			}
			if got, want := cur.Fingerprint(), cur.fingerprintScratch(); got != want {
				t.Fatalf("trial %d step %d: incremental fingerprint %x != scratch %x", trial, step, got, want)
			}
			if got, want := cur.Fingerprint(), model().Fingerprint(); got != want {
				t.Fatalf("trial %d step %d: fingerprint %x != reference-built %x", trial, step, got, want)
			}
		}

		// The source dataset must have been untouched by every mutation.
		if !src.Equal(srcRef) {
			t.Fatalf("trial %d: mutations leaked into the source dataset", trial)
		}
		if got := src.Fingerprint(); got != srcFP {
			t.Fatalf("trial %d: source fingerprint changed %x -> %x", trial, srcFP, got)
		}
		if got, want := src.Fingerprint(), src.fingerprintScratch(); got != want {
			t.Fatalf("trial %d: source incremental fingerprint %x != scratch %x", trial, got, want)
		}
	}
}

// TestValueCopiesAreCallerOwned checks that NumericValues and StringValues
// hand out copies: writing into and sorting them leaves the dataset, its
// clones, the fingerprint, and the cached roll-up unchanged.
func TestValueCopiesAreCallerOwned(t *testing.T) {
	d := sampleTestDataset(t, 300, 64)
	ref := sampleTestDataset(t, 300, 64)
	cp := d.Clone()
	fp := d.Fingerprint()
	rn, rc := d.Rollup("num"), d.Rollup("cat")
	lo, hi, nulls := rn.Min(), rn.Max(), rn.Nulls
	distinct := append([]string(nil), rc.Distinct...)

	nums := d.NumericValues("num")
	if again := d.NumericValues("num"); &again[0] == &nums[0] {
		t.Fatal("NumericValues returned shared storage")
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(nums)))
	for i := range nums {
		nums[i] = -1
	}
	strs := cp.StringValues("cat")
	strs[0] = "mutated"
	sort.Strings(strs)

	for name, ds := range map[string]*Dataset{"source": d, "clone": cp} {
		if !ds.Equal(ref) {
			t.Fatalf("%s: writing a value copy changed the dataset", name)
		}
		if got := ds.Fingerprint(); got != fp || got != ds.fingerprintScratch() {
			t.Fatalf("%s: fingerprint %x, want %x", name, got, fp)
		}
		if got := ds.NumericValues("num"); got[0] != 1 || got[len(got)-1] != 299 {
			t.Fatalf("%s: NumericValues = [%v … %v], want row order [1 … 299]", name, got[0], got[len(got)-1])
		}
		if got := ds.StringValues("cat"); got[0] != "b" {
			t.Fatalf("%s: StringValues[0] = %q, want \"b\"", name, got[0])
		}
	}
	if d.Rollup("num") != rn || d.Rollup("cat") != rc {
		t.Fatal("writing a value copy invalidated the roll-up cache")
	}
	if rn.Min() != lo || rn.Max() != hi || rn.Nulls != nulls || !sameStrings(rc.Distinct, distinct) {
		t.Fatal("writing a value copy changed the roll-up")
	}
}

// TestMaskMatchesEval cross-checks the vectorized predicate mask against the
// per-row Eval path on randomized datasets and predicates.
func TestMaskMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	levels := []string{"x", "y", "z"}
	d := New()
	n := 200
	numsA := make([]float64, n)
	strsB := make([]string, n)
	nullA := make([]bool, n)
	nullB := make([]bool, n)
	for i := 0; i < n; i++ {
		numsA[i] = rng.NormFloat64()
		strsB[i] = levels[rng.Intn(len(levels))]
		nullA[i] = rng.Float64() < 0.2
		nullB[i] = rng.Float64() < 0.2
	}
	if err := d.AddNumericColumn("a", numsA, nullA); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCategoricalColumn("b", strsB, nullB); err != nil {
		t.Fatal(err)
	}

	preds := []Predicate{
		And(),
		And(CmpNum("a", Gt, 0)),
		And(CmpNum("a", Le, 0.5), EqStr("b", "y")),
		And(Clause{Attr: "a", Op: IsNull}),
		And(Clause{Attr: "b", Op: NotNull}, Clause{Attr: "b", Op: Ne, StrVal: "z"}),
		And(EqStr("missing", "v")),
	}
	var buf []bool
	for pi, p := range preds {
		buf = p.Mask(d, buf)
		for r := 0; r < n; r++ {
			if buf[r] != p.Eval(d, r) {
				t.Fatalf("pred %d row %d: mask %v != eval %v", pi, r, buf[r], p.Eval(d, r))
			}
		}
	}
}
