// Copy-on-write column sharing, column versioning, and the shared per-column
// statistics, all at chunk granularity.
//
// Dataset.Clone is an O(#cols) header copy: the clone references the same
// *Column values as the source, and both sides mark the columns shared. The
// first write to a shared column — via MutableColumn or the Set* methods —
// copies just the column header (O(#chunks) pointers), marking the chunks
// shared; each chunk is then deep-copied individually on its first write
// (MutableChunk), so a single-attribute, single-chunk intervention costs
// O(chunk size), not O(rows).
//
// Every column carries a version counter bumped on each chunk mutation
// grant, and every chunk carries its own. The cached content digest
// (fingerprint.go) and the ColumnRollup are keyed by the column counter; the
// per-chunk digest partials, statistics blocks, and reservoir samples
// (sample.go) are keyed by the chunk counters. After a mutation only the
// dirty chunks rescan — the column-level values are cheap merges of the
// per-chunk blocks.
//
// ColumnRollup (Rollup) is the only cached column-level statistics surface:
// constant-size scalars, domain counts, and a quantile sketch merged from
// the per-chunk blocks in O(#chunks), never materializing row-length
// vectors. Counts, extrema, and domains there are exact. Its float moments
// are merged per chunk, so their low bits depend on the chunk layout: a
// mean or standard deviation that becomes a cell value or a model input is
// computed by a row-order pass over NumericValues instead, which keeps
// transform outputs independent of the layout. The extraction helpers
// NumericValues and StringValues return fresh caller-owned copies in row
// order; only the roll-up's own map and slices (and DistinctStrings, which
// returns Rollup().Distinct) are shared, read-only state.
//
// Contract for writers: never mutate slices obtained from Chunk views or the
// roll-up — request MutableColumn, then MutableChunk for each chunk written,
// and do all raw writes before the column is next observed (Digest, Rollup,
// Fingerprint). The Set* methods follow this protocol internally and are
// always safe. The cowmutate analyzer (internal/lint) flags violations
// statically.
package dataset

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// MutableColumn returns the named column prepared for in-place mutation: if
// the column is shared with another dataset (after a Clone), its header is
// copied first — an O(#chunks) pointer copy that marks every chunk shared —
// and the copy replaces it in d, so writes never leak into other datasets.
// Cell writes then go through MutableChunk, which copies and dirties only
// the touched chunk (or PrivatizeChunks for dense writes). Returns nil if
// the column does not exist.
func (d *Dataset) MutableColumn(name string) *Column {
	i, ok := d.byName[name]
	if !ok {
		return nil
	}
	c := d.cols[i]
	if c.shared.Load() {
		c = c.cloneHeader()
		d.cols[i] = c
	}
	return c
}

// markDirty invalidates the column's cached digest and statistics. Chunk
// caches are invalidated by the per-chunk version bump in MutableChunk.
func (c *Column) markDirty() { c.version.Add(1) }

// chunkStats is the per-chunk statistics block: NULL count plus a mergeable
// summary of the chunk's non-NULL cells — moments and a quantile sketch for
// numeric chunks, domain counts for string chunks. The block is constant
// size (no row-length vectors), and column-level statistics are merges of
// these, so after a sparse write only the dirty chunks rescan.
type chunkStats struct {
	version uint64 // chunk version the block was computed at

	nulls   int
	moments stats.Moments
	sketch  *stats.QuantileSketch
	counts  map[string]int
}

// statsBlock returns the chunk's statistics block, computing and caching it
// on first use, keyed by the chunk version.
func (ch *chunk) statsBlock(kind Kind) *chunkStats {
	v := ch.version.Load()
	if s := ch.stats.Load(); s != nil && s.version == v {
		return s
	}
	s := &chunkStats{version: v}
	for _, isNull := range ch.null {
		if isNull {
			s.nulls++
		}
	}
	if kind == Numeric {
		// Scratch vector of the chunk's non-NULL values: summarized into the
		// constant-size block and released — the chunk never retains O(rows)
		// derived state.
		vals := make([]float64, 0, len(ch.nums)-s.nulls)
		for i, val := range ch.nums {
			if !ch.null[i] {
				vals = append(vals, val)
			}
		}
		s.moments = stats.MomentsOf(vals)
		sort.Float64s(vals)
		s.sketch = stats.SketchSorted(vals, stats.SketchSize)
	} else {
		s.counts = make(map[string]int)
		for i, val := range ch.strs {
			if !ch.null[i] {
				s.counts[val]++
			}
		}
	}
	ch.stats.Store(s)
	return s
}

// ColumnRollup is the column-level merge of the per-chunk statistics blocks:
// row/NULL counts, moments and extrema with a mergeable quantile sketch for
// numeric columns, and domain counts with the sorted distinct values for
// string columns. It is the only cached statistics surface — computing it
// costs O(#chunks) merges over cached chunk blocks (only dirty chunks
// rescan) and it never materializes row-length value vectors. All fields are
// read-only for callers; the map and slices are shared, never mutate them.
type ColumnRollup struct {
	version uint64 // column version the roll-up was computed at

	// Rows is the column length; Nulls the number of NULL slots.
	Rows, Nulls int

	// Numeric columns: Moments summarizes the non-NULL values (count, sum,
	// mean, M2, NaN-skipping extrema) and Sketch answers approximate
	// quantiles within Sketch.RankError() of exact. A multi-chunk column's
	// merged mean and M2 equal the flat computation only up to
	// floating-point association error, so their low bits depend on the
	// chunk layout, and values written into cells are fitted on
	// NumericValues.
	Moments stats.Moments
	Sketch  *stats.QuantileSketch

	// String columns: Counts holds the per-value multiplicities and Distinct
	// the sorted distinct values.
	Counts   map[string]int
	Distinct []string
}

// Min returns the smallest non-NULL, non-NaN numeric value (NaN when none).
func (r *ColumnRollup) Min() float64 {
	if r.Moments.Count == 0 {
		return math.NaN()
	}
	return r.Moments.Min
}

// Max returns the largest non-NULL, non-NaN numeric value (NaN when none).
func (r *ColumnRollup) Max() float64 {
	if r.Moments.Count == 0 {
		return math.NaN()
	}
	return r.Moments.Max
}

// Quantile returns an approximate q-quantile of the non-NULL numeric values
// from the merged sketch, within Sketch.RankError() ranks of exact.
func (r *ColumnRollup) Quantile(q float64) float64 { return r.Sketch.Quantile(q) }

// Rollup returns the column's statistics roll-up, computing and caching it
// on first use. The cache is invalidated by chunk mutation grants and shared
// by every dataset referencing the column; recomputation merges the cached
// per-chunk blocks, so it rescans only chunks mutated since the last
// observation.
func (c *Column) Rollup() *ColumnRollup {
	v := c.version.Load()
	if r := c.rollup.Load(); r != nil && r.version == v {
		return r
	}
	r := c.computeRollup(v)
	c.rollup.Store(r)
	return r
}

// computeRollup merges the per-chunk statistics blocks.
func (c *Column) computeRollup(version uint64) *ColumnRollup {
	r := &ColumnRollup{version: version, Rows: c.rows}
	if c.Kind == Numeric {
		for _, ch := range c.chunks {
			p := ch.statsBlock(Numeric)
			r.Nulls += p.nulls
			r.Moments = r.Moments.Merge(p.moments)
			r.Sketch = r.Sketch.Merge(p.sketch)
		}
		return r
	}
	r.Counts = make(map[string]int)
	for _, ch := range c.chunks {
		p := ch.statsBlock(c.Kind)
		r.Nulls += p.nulls
		for val, n := range p.counts {
			r.Counts[val] += n
		}
	}
	r.Distinct = make([]string, 0, len(r.Counts))
	for val := range r.Counts {
		r.Distinct = append(r.Distinct, val)
	}
	sort.Strings(r.Distinct)
	return r
}

// Rollup returns the statistics roll-up of the named column, or nil if the
// column does not exist.
func (d *Dataset) Rollup(attr string) *ColumnRollup {
	c := d.Column(attr)
	if c == nil {
		return nil
	}
	return c.Rollup()
}
