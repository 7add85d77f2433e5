// Chunked columnar storage: every Column stores its cells as a sequence of
// fixed-size chunks rather than one flat slice. The chunk — not the column —
// is the unit of copy-on-write, digesting, and statistics:
//
//   - Clone shares chunks between datasets; the first write to a shared
//     chunk (MutableChunk, Set*) copies just that chunk, so a single-cell
//     intervention on a 10M-row column costs O(chunk), not O(column).
//   - Each chunk caches a mergeable digest partial (fingerprint.go) and a
//     statistics roll-up (cow.go), both keyed by a per-chunk version
//     counter; after a mutation only the dirty chunks recompute.
//   - All chunks of a column hold exactly the column's chunk size rows
//     except the last (the canonical layout), so a column's geometry is a
//     pure function of (rows, chunk size). Digests, statistics, Equal, and
//     the CSV round trip are chunk-layout-agnostic: datasets with identical
//     contents but different chunk sizes compare equal and fingerprint
//     equal.
//
// Readers iterate chunk-at-a-time via NumChunks/Chunk, or cell-at-a-time
// via NumAt/StrAt/NullAt. Writers follow the CoW contract (cow.go): obtain
// the column from Dataset.MutableColumn, then request MutableChunk for each
// chunk they write — writing through a Chunk view corrupts every dataset
// sharing the chunk, and the cowmutate analyzer flags it.
package dataset

import (
	"sync/atomic"

	"repro/internal/stats"
)

// DefaultChunkSize is the number of rows per chunk used by New and ReadCSV
// unless overridden (NewChunked, Rechunk). 64Ki rows keeps a
// numeric chunk at 512 KiB — large enough to amortize per-chunk overhead,
// small enough that a single-cell write dirties a sliver of a big column.
const DefaultChunkSize = 1 << 16

// chunk is one fixed-size window of a column: value cells, the NULL mask,
// and the per-chunk caches. Chunks are shared between datasets after Clone;
// the shared flag makes the next mutation grant copy the chunk first.
// version counts mutation grants and keys the digest and stats caches.
type chunk struct {
	start int // global row index of the chunk's first row
	nums  []float64
	strs  []string
	null  []bool

	shared   atomic.Bool
	version  atomic.Uint64
	digest   atomic.Uint64 // cached mergeable digest partial (fingerprint.go)
	digestAt atomic.Uint64 // version+1 at which digest was computed; 0 = none
	stats    atomic.Pointer[chunkStats]
	sample   atomic.Pointer[chunkSample] // cached reservoir sample (sample.go)
}

// len returns the number of rows in the chunk.
func (ch *chunk) len() int { return len(ch.null) }

// clone returns a deep copy of the chunk's cells with cold caches. It is
// called only from mutation grants, where the caches would be invalidated
// immediately anyway.
func (ch *chunk) clone() *chunk {
	cp := &chunk{start: ch.start}
	if ch.nums != nil {
		cp.nums = append([]float64(nil), ch.nums...)
	}
	if ch.strs != nil {
		cp.strs = append([]string(nil), ch.strs...)
	}
	cp.null = append([]bool(nil), ch.null...)
	return cp
}

// ChunkView is a read-only window over one chunk of a column. Start is the
// global row index of the view's first row; the slices are the chunk's
// backing storage. Views returned by Chunk alias state shared across
// datasets and must never be written through; views returned by
// MutableChunk are the sanctioned write path.
type ChunkView struct {
	Start int
	Nums  []float64 // populated for Numeric columns
	Strs  []string  // populated for Categorical and Text columns
	Null  []bool
}

// Len returns the number of rows in the view.
func (v ChunkView) Len() int { return len(v.Null) }

// NumChunks returns the number of chunks the column's rows occupy.
func (c *Column) NumChunks() int { return len(c.chunks) }

// ChunkSize returns the column's rows-per-chunk capacity.
func (c *Column) ChunkSize() int { return c.csize }

// Chunk returns a read-only view of chunk i. Callers must not mutate the
// view's slices — they are shared across every dataset referencing the
// chunk; use MutableChunk to write.
func (c *Column) Chunk(i int) ChunkView { return c.chunks[i].view() }

func (ch *chunk) view() ChunkView {
	return ChunkView{Start: ch.start, Nums: ch.nums, Strs: ch.strs, Null: ch.null}
}

// MutableChunk returns a writable view of chunk i, copying the chunk first
// if it is shared with another dataset and bumping the chunk and column
// versions so the digest and statistics caches recompute. The column itself
// must be exclusively owned — obtained from Dataset.MutableColumn (or never
// cloned); calling MutableChunk on a column header shared between datasets
// panics, because the write would leak into every clone.
func (c *Column) MutableChunk(i int) ChunkView {
	if c.shared.Load() {
		panic("dataset: MutableChunk on a column shared between datasets; obtain the column via Dataset.MutableColumn first")
	}
	ch := c.chunks[i]
	if ch.shared.Load() {
		ch = ch.clone()
		c.chunks[i] = ch
	}
	ch.version.Add(1)
	c.markDirty()
	return ch.view()
}

// chunkOf maps a global row index to (chunk index, offset inside the
// chunk). Power-of-two chunk sizes (the default) resolve with shift/mask.
func (c *Column) chunkOf(row int) (ci, off int) {
	if c.mask >= 0 {
		return row >> c.shift, row & c.mask
	}
	return row / c.csize, row % c.csize
}

// NumAt returns the raw numeric cell at the global row index, ignoring the
// NULL mask (a NULL slot returns whatever stale value it holds — check
// NullAt first, or use Dataset.Num for the NaN-on-NULL convention).
func (c *Column) NumAt(row int) float64 {
	ci, off := c.chunkOf(row)
	return c.chunks[ci].nums[off]
}

// StrAt returns the raw string cell at the global row index, ignoring the
// NULL mask.
func (c *Column) StrAt(row int) string {
	ci, off := c.chunkOf(row)
	return c.chunks[ci].strs[off]
}

// NullAt reports whether the cell at the global row index is NULL.
func (c *Column) NullAt(row int) bool {
	ci, off := c.chunkOf(row)
	return c.chunks[ci].null[off]
}

// WarmChunk computes and caches chunk i's statistics block and digest
// partial if they are cold. Warming is idempotent and safe to fan out in
// parallel across (column, chunk) pairs — profile discovery uses this to
// parallelize the per-chunk scans ahead of the cheap merge.
func (c *Column) WarmChunk(i int) {
	ch := c.chunks[i]
	ch.statsBlock(c.Kind)
	ch.digestPartial(c.Kind)
}

// ChunkMoments returns the mergeable moment summary of chunk i's non-NULL
// numeric cells (count, sum, mean, M2, NaN-skipping extrema), computing and
// caching the chunk's statistics block if cold. Transforms use the per-chunk
// extrema to skip chunks a clamp provably leaves untouched. The zero Moments
// is returned for non-numeric columns.
func (c *Column) ChunkMoments(i int) stats.Moments {
	if c.Kind != Numeric {
		return stats.Moments{}
	}
	return c.chunks[i].statsBlock(Numeric).moments
}

// PrivatizeChunks prepares every chunk of the column for in-place writes in
// one allocation sweep: all chunks still shared with other datasets are
// deep-copied into freshly allocated contiguous backing slabs (one values
// slab, one NULL-mask slab, one chunk-struct slab) instead of one
// allocation trio per chunk. Cell contents and all per-chunk caches (stats,
// digest, sample) carry over, so chunks the caller ends up not writing keep
// their warm caches.
//
// Use this before a dense write — a transform that touches most chunks —
// then request MutableChunk per written chunk as usual: the grants find the
// chunks unshared and only bump versions, so a dense transform performs
// O(1) allocations instead of O(#chunks). Like MutableChunk, the column
// header must be exclusively owned (Dataset.MutableColumn) or the call
// panics.
func (c *Column) PrivatizeChunks() {
	if c.shared.Load() {
		panic("dataset: PrivatizeChunks on a column shared between datasets; obtain the column via Dataset.MutableColumn first")
	}
	nShared, cells := 0, 0
	for _, ch := range c.chunks {
		if ch.shared.Load() {
			nShared++
			cells += ch.len()
		}
	}
	if nShared == 0 {
		return
	}
	structs := make([]chunk, nShared)
	nullSlab := make([]bool, cells)
	var numsSlab []float64
	var strsSlab []string
	if c.Kind == Numeric {
		numsSlab = make([]float64, cells)
	} else {
		strsSlab = make([]string, cells)
	}
	si, off := 0, 0
	for i, ch := range c.chunks {
		if !ch.shared.Load() {
			continue
		}
		cp := &structs[si]
		si++
		n := ch.len()
		end := off + n
		cp.start = ch.start
		if c.Kind == Numeric {
			cp.nums = numsSlab[off:end:end]
			copy(cp.nums, ch.nums)
		} else {
			cp.strs = strsSlab[off:end:end]
			copy(cp.strs, ch.strs)
		}
		cp.null = nullSlab[off:end:end]
		copy(cp.null, ch.null)
		off = end
		// Content is identical, so the source chunk's caches stay valid on
		// the copy: replay its version and carry the cache entries over.
		cp.version.Store(ch.version.Load())
		cp.digest.Store(ch.digest.Load())
		cp.digestAt.Store(ch.digestAt.Load())
		cp.stats.Store(ch.stats.Load())
		cp.sample.Store(ch.sample.Load())
		c.chunks[i] = cp
	}
}

// newColumn chunks the given cell slices into the canonical layout for the
// chunk size: the slices are windowed in place (no copy) with full-capacity
// bounds so later growth of one chunk cannot bleed into the next. A nil
// null mask allocates an all-false mask per chunk.
func newColumn(name string, kind Kind, nums []float64, strs []string, null []bool, csize int) *Column {
	if csize < 1 {
		csize = DefaultChunkSize
	}
	n := len(nums)
	if kind != Numeric {
		n = len(strs)
	}
	c := &Column{Name: name, Kind: kind, rows: n, csize: csize}
	c.shift, c.mask = chunkShiftMask(csize)
	c.chunks = make([]*chunk, 0, (n+csize-1)/csize)
	for start := 0; start < n; start += csize {
		end := start + csize
		if end > n {
			end = n
		}
		ch := &chunk{start: start}
		if kind == Numeric {
			ch.nums = nums[start:end:end]
		} else {
			ch.strs = strs[start:end:end]
		}
		if null != nil {
			ch.null = null[start:end:end]
		} else {
			ch.null = make([]bool, end-start)
		}
		c.chunks = append(c.chunks, ch)
	}
	return c
}

// chunkShiftMask returns the shift/mask pair for power-of-two chunk sizes,
// or (0, -1) when the size needs the general divide path.
func chunkShiftMask(csize int) (uint, int) {
	if csize&(csize-1) != 0 {
		return 0, -1
	}
	shift := uint(0)
	for 1<<shift != csize {
		shift++
	}
	return shift, csize - 1
}

// cloneHeader returns a new column header referencing the same chunks,
// marking every chunk shared. Cell content is untouched; subsequent writes
// copy individual chunks. Caches start cold — the caller is about to
// mutate, which would invalidate them anyway.
func (c *Column) cloneHeader() *Column {
	cp := &Column{Name: c.Name, Kind: c.Kind, rows: c.rows, csize: c.csize, shift: c.shift, mask: c.mask}
	cp.chunks = make([]*chunk, len(c.chunks))
	for i, ch := range c.chunks {
		ch.shared.Store(true)
		cp.chunks[i] = ch
	}
	return cp
}

// Rechunk returns a content-identical copy of the dataset laid out with the
// given chunk size. Digests, statistics, and Equal are layout-agnostic, so
// the result fingerprints and compares equal to the receiver; only the
// granularity of copy-on-write and incremental recomputation changes.
func (d *Dataset) Rechunk(size int) *Dataset {
	if size < 1 {
		size = DefaultChunkSize
	}
	out := NewChunked(size)
	for _, c := range d.cols {
		var nums []float64
		var strs []string
		null := make([]bool, 0, c.rows)
		if c.Kind == Numeric {
			nums = make([]float64, 0, c.rows)
		} else {
			strs = make([]string, 0, c.rows)
		}
		for _, ch := range c.chunks {
			nums = append(nums, ch.nums...)
			strs = append(strs, ch.strs...)
			null = append(null, ch.null...)
		}
		if err := out.addColumn(newColumn(c.Name, c.Kind, nums, strs, null, size)); err != nil {
			panic(err) // cannot happen: schema mirrors a valid dataset
		}
	}
	return out
}
