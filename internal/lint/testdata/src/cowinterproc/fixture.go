// Package cowinterproc is the interprocedural regression corpus for
// cowmutate: every bad* function launders CoW-shared state through at
// least one in-package helper, so only the summary-based analysis — which
// follows results, parameter aliases, and parameter writes across calls —
// flags it.
package cowinterproc

import (
	"sort"

	"repro/internal/dataset"
)

// nums returns a shared chunk slice: its summary records that result 0
// aliases dataset.Column.Chunk.
func nums(d *dataset.Dataset) []float64 {
	return d.Column("x").Chunk(0).Nums
}

// head forwards an alias of its parameter: returnParams[0] = {0}.
func head(s []float64) []float64 {
	return s[:1]
}

// fill writes through its parameter: mutatesParam[0].
func fill(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// fillVia launders the parameter write through another helper.
func fillVia(s []float64) {
	fill(s)
}

// sortInPlace reorders its parameter via the stdlib sorter.
func sortInPlace(s []float64) {
	sort.Float64s(s)
}

// chain launders the accessor through two helper hops.
func chain(d *dataset.Dataset) []float64 {
	return nums(d)
}

// pick / pickDeep are mutually recursive aliases of the accessor — the SCC
// fixpoint must converge on returnTaint.
func pick(d *dataset.Dataset, n int) []float64 {
	if n == 0 {
		return d.Column("x").Chunk(0).Nums
	}
	return pickDeep(d, n-1)
}

func pickDeep(d *dataset.Dataset, n int) []float64 {
	return pick(d, n)
}

func badHelperReturnWrite(d *dataset.Dataset) {
	nums(d)[0] = 1 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badHelperReturnVarWrite(d *dataset.Dataset) {
	v := nums(d)
	v[0] = 1 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badParamAliasWrite(d *dataset.Dataset) {
	h := head(d.Column("x").Chunk(0).Nums)
	h[0] = 0 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badMutatingHelperArg(d *dataset.Dataset) {
	fill(d.Column("x").Chunk(0).Nums) // want `passes .* obtained from dataset\.Column\.Chunk to fill, which writes through its parameter`
}

func badTransitiveMutatingHelperArg(d *dataset.Dataset) {
	fillVia(d.Column("x").Chunk(1).Nums) // want `passes .* obtained from dataset\.Column\.Chunk to fillVia, which writes through its parameter`
}

func badSortingHelperArg(d *dataset.Dataset) {
	sortInPlace(d.Column("x").Chunk(0).Nums) // want `passes .* obtained from dataset\.Column\.Chunk to sortInPlace, which writes through its parameter`
}

func badChainedLaunder(d *dataset.Dataset) {
	chain(d)[2] = 9 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badRecursiveLaunder(d *dataset.Dataset) {
	w := pick(d, 2)
	w[0] = 1 // want `obtained from dataset\.Column\.Chunk mutates CoW-shared state`
}

func badMutatingHelperOnHelperReturn(d *dataset.Dataset) {
	fill(nums(d)) // want `passes .* obtained from dataset\.Column\.Chunk to fill, which writes through its parameter`
}

// ownCopy returns freshly owned storage; its summary carries no taint.
func ownCopy(d *dataset.Dataset) []float64 {
	return append([]float64(nil), d.Column("x").Chunk(0).Nums...)
}

// goodOwnedHelper: writes to a helper-returned copy are fine.
func goodOwnedHelper(d *dataset.Dataset) {
	c := ownCopy(d)
	c[0] = 1
	sort.Float64s(c)
}

// goodReadingHelperArg: a helper that only reads its parameter never marks
// it mutated.
func total(s []float64) float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func goodReadingHelper(d *dataset.Dataset) float64 {
	return total(d.Column("x").Chunk(0).Nums)
}
