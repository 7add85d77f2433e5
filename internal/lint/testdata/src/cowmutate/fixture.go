// Package cowmutate is the golden fixture for the cowmutate analyzer:
// every flagged line mutates CoW-shared dataset state obtained from a read
// accessor; the good* functions prove the MutableColumn/MutableChunk route
// and defensive-copy idioms are not flagged.
package cowmutate

import (
	"slices"
	"sort"

	"repro/internal/dataset"
)

func badChunkWrite(d *dataset.Dataset) {
	v := d.Column("x").Chunk(0)
	v.Nums[0] = 1 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badChunkDirectWrite(d *dataset.Dataset) {
	d.Column("x").Chunk(0).Null[0] = true // want `dataset\.Column\.Chunk`
}

func badMutableColumnChunkWrite(d *dataset.Dataset) {
	// MutableColumn privatizes the column header only; Chunk still hands out
	// a read-only view of chunk storage shared with other datasets.
	c := d.MutableColumn("x")
	v := c.Chunk(0)
	v.Strs[0] = "z" // want `dataset\.Column\.Chunk`
}

func badDistinctWrite(d *dataset.Dataset) {
	vals := d.DistinctStrings("x")
	vals[0] = "z" // want `dataset\.DistinctStrings`
}

func badColumnRollupCountsWrite(d *dataset.Dataset) {
	r := d.Column("x").Rollup()
	r.Counts["z"] = 3 // want `dataset\.Column\.Rollup`
}

func badRollupWrite(d *dataset.Dataset) {
	r := d.Rollup("x")
	r.Distinct[0] = "z" // want `dataset\.Rollup`
}

func badColumnRollupSort(d *dataset.Dataset) {
	sort.Strings(d.Column("x").Rollup().Distinct) // want `sorts a slice obtained from dataset\.Column\.Rollup in place`
}

func badChunkValuesWrite(d *dataset.Dataset) {
	nums := d.Column("x").Chunk(0).Nums
	nums[0] = 2 // want `dataset\.Column\.Chunk`
}

func badDistinctInPlaceReverse(d *dataset.Dataset) {
	slices.Reverse(d.DistinctStrings("x")) // want `sorts a slice obtained from dataset\.DistinctStrings in place`
}

func badChunkSort(d *dataset.Dataset) {
	sort.Float64s(d.Column("x").Chunk(0).Nums) // want `sorts a slice obtained from dataset\.Column\.Chunk in place`
}

func badPropagatedSort(d *dataset.Dataset) {
	vals := d.Rollup("x").Distinct
	alias := vals
	sort.Strings(alias) // want `dataset\.Rollup`
}

func badRangeColumns(d *dataset.Dataset) {
	for _, col := range d.Columns() {
		col.Chunk(0).Strs[0] = "z" // want `dataset\.Column\.Chunk`
	}
}

func badCopyInto(d *dataset.Dataset, src []string) {
	copy(d.DistinctStrings("x"), src) // want `copy into .* dataset\.DistinctStrings`
}

func badCopyIntoChunk(d *dataset.Dataset, src []float64) {
	copy(d.Column("x").Chunk(0).Nums, src) // want `copy into .* dataset\.Column\.Chunk`
}

func badAppendTo(d *dataset.Dataset) []string {
	return append(d.DistinctStrings("x"), "z") // want `append to .* dataset\.DistinctStrings`
}

func badReslice(d *dataset.Dataset) {
	head := d.Rollup("x").Distinct[:2]
	head[0] = "z" // want `dataset\.Rollup`
}

func badChunkReslice(d *dataset.Dataset) {
	head := d.Column("x").Chunk(0).Nums[:1]
	head[0] = 0 // want `dataset\.Column\.Chunk`
}

func badIncrement(d *dataset.Dataset) {
	d.Column("x").Chunk(0).Nums[0]++ // want `dataset\.Column\.Chunk`
}

// goodMutableChunk: the sanctioned write path — MutableColumn for the
// header, MutableChunk per touched chunk — is never flagged.
func goodMutableChunk(d *dataset.Dataset) {
	c := d.MutableColumn("x")
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		w.Nums[0] = 1
		w.Null[0] = false
		sort.Float64s(w.Nums)
	}
}

// goodRetaint: re-binding a previously tainted variable from a sanctioned
// write accessor clears its taint.
func goodRetaint(d *dataset.Dataset) {
	c := d.Column("x")
	v := c.Chunk(0)
	_ = v.Len()
	c = d.MutableColumn("x")
	w := c.MutableChunk(0)
	w.Nums[1] = 4
}

// goodDefensiveCopy: mutating an owned copy of a roll-up slice is fine.
func goodDefensiveCopy(d *dataset.Dataset) []string {
	vals := append([]string(nil), d.DistinctStrings("x")...)
	vals[0] = "z"
	sort.Strings(vals)
	return vals
}

// goodValueCopies: NumericValues and StringValues return caller-owned
// copies, so writing into or sorting them is not flagged.
func goodValueCopies(d *dataset.Dataset) []float64 {
	nums := d.NumericValues("x")
	nums[0] = 9
	sort.Float64s(nums)
	copy(d.NumericValues("x"), nums)
	strs := d.StringValues("y")
	strs[0] = "z"
	sort.Strings(strs)
	return append(d.NumericValues("x"), 3)
}

// goodChunkDefensiveCopy: copying a chunk view's values before mutating.
func goodChunkDefensiveCopy(d *dataset.Dataset) []float64 {
	v := d.Column("x").Chunk(0)
	vals := append([]float64(nil), v.Nums...)
	sort.Float64s(vals)
	return vals
}

// goodChunkReads: iterating read-only chunk views is the supported scan
// path.
func goodChunkReads(d *dataset.Dataset) float64 {
	total := 0.0
	c := d.Column("x")
	for k := 0; k < c.NumChunks(); k++ {
		v := c.Chunk(k)
		for i, x := range v.Nums {
			if !v.Null[i] {
				total += x
			}
		}
	}
	return total
}

// goodReads: reading through the accessors is the whole point.
func goodReads(d *dataset.Dataset) float64 {
	total := 0.0
	for _, v := range d.Rollup("x").Distinct {
		total += float64(len(v))
	}
	if c := d.Column("x"); c != nil {
		total += float64(c.Len()) + c.NumAt(0)
	}
	return total
}

// goodSetters: Dataset.Set* route through MutableColumn internally.
func goodSetters(d *dataset.Dataset) {
	d.SetNum("x", 0, 1)
	d.SetNull("x", 1)
}
