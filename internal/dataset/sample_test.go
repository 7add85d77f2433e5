package dataset

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
)

// sampleTestDataset builds a paired-column dataset: num(i) = i and
// cat(i) = letters[i%4], so any sampled view can be checked for row pairing.
func sampleTestDataset(t *testing.T, rows, csize int) *Dataset {
	t.Helper()
	letters := []string{"a", "b", "c", "d"}
	nums := make([]float64, rows)
	cats := make([]string, rows)
	null := make([]bool, rows)
	for i := range nums {
		nums[i] = float64(i)
		cats[i] = letters[i%4]
		null[i] = i%97 == 0
	}
	d := NewChunked(csize)
	if err := d.AddNumericColumn("num", nums, null); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCategoricalColumn("cat", cats, null); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSampleViewIdentityBelowCap(t *testing.T) {
	d := sampleTestDataset(t, 100, 32)
	if got := d.SampleView(100, 1); got != d {
		t.Fatal("rows == cap should return the receiver")
	}
	if got := d.SampleView(1000, 1); got != d {
		t.Fatal("rows < cap should return the receiver")
	}
	if got := d.SampleView(0, 1); got != d {
		t.Fatal("cap 0 disables sampling")
	}
}

func TestSampleViewDeterministicAndPaired(t *testing.T) {
	d := sampleTestDataset(t, 10_000, 256)
	v := d.SampleView(500, 42)
	if v.NumRows() != 500 {
		t.Fatalf("sampled rows = %d, want 500", v.NumRows())
	}
	if v.NumCols() != 2 {
		t.Fatalf("sampled cols = %d", v.NumCols())
	}
	letters := []string{"a", "b", "c", "d"}
	for i := 0; i < v.NumRows(); i++ {
		if v.IsNull("num", i) != v.IsNull("cat", i) {
			t.Fatalf("row %d: null masks unpaired", i)
		}
		if v.IsNull("num", i) {
			continue
		}
		// The original row index is recoverable from the numeric cell; the
		// categorical cell must be the matching letter — paired sampling.
		orig := int(v.Num("num", i))
		if got := v.Str("cat", i); got != letters[orig%4] {
			t.Fatalf("row %d (orig %d): cat %q, want %q — columns sampled different rows", i, orig, got, letters[orig%4])
		}
	}
	// Same seed: identical view (and pointer-identical via the cache).
	if again := d.SampleView(500, 42); again != v {
		if !again.Equal(v) {
			t.Fatal("same seed produced different sample")
		}
	}
	// Different seed: different rows (overwhelmingly likely).
	other := d.SampleView(500, 43)
	if other.Equal(v) {
		t.Fatal("different seeds produced identical samples")
	}
}

func TestSampleViewStratified(t *testing.T) {
	// 4 chunks of 2500 rows; a 400-row budget must draw ~100 from each.
	d := sampleTestDataset(t, 10_000, 2500)
	v := d.SampleView(400, 7)
	perChunk := make(map[int]int)
	for i := 0; i < v.NumRows(); i++ {
		if v.IsNull("num", i) {
			continue
		}
		perChunk[int(v.Num("num", i))/2500]++
	}
	for k := 0; k < 4; k++ {
		if perChunk[k] < 80 || perChunk[k] > 120 {
			t.Fatalf("chunk %d drew %d rows, want ~100 — not stratified", k, perChunk[k])
		}
	}
}

func TestSampleViewDirtyChunkReuse(t *testing.T) {
	d := sampleTestDataset(t, 10_000, 1000)
	v1 := d.SampleView(600, 9)

	// A sparse write to one chunk must re-extract only that chunk: the other
	// chunks' cached reservoirs are shared with the old view.
	cp := d.Clone()
	cp.SetNum("num", 5, -1)
	v2 := cp.SampleView(600, 9)
	if v2 == v1 {
		t.Fatal("sample view not invalidated by a write")
	}
	quotas := d.SampleQuotas(600)
	// Count sample blocks reused pointer-identically between the two source
	// datasets' chunks (chunks themselves are CoW-shared except the dirty one).
	dc, cc := d.Column("num"), cp.Column("num")
	reused, fresh := 0, 0
	for k := range dc.chunks {
		if quotas[k] == 0 {
			continue
		}
		a := dc.chunks[k].sample.Load()
		b := cc.chunks[k].sample.Load()
		if a == nil || b == nil {
			t.Fatalf("chunk %d: missing sample cache", k)
		}
		if a == b {
			reused++
		} else {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("re-extracted %d chunks, want exactly the 1 dirty chunk", fresh)
	}
	if reused != len(quotas)-1 {
		t.Fatalf("reused %d cached chunk samples, want %d", reused, len(quotas)-1)
	}
	// Rows drawn from clean chunks are identical across the two views.
	for i := 0; i < v1.NumRows(); i++ {
		if v1.IsNull("num", i) || int(v1.Num("num", i))/1000 == 0 {
			continue
		}
		if v1.Num("num", i) != v2.Num("num", i) {
			t.Fatalf("row %d from a clean chunk changed across views", i)
		}
	}
}

func TestSampleViewLastChunkRagged(t *testing.T) {
	d := sampleTestDataset(t, 1037, 100) // last chunk has 37 rows
	v := d.SampleView(200, 3)
	if v.NumRows() != 200 {
		t.Fatalf("rows = %d", v.NumRows())
	}
	seen := map[int]bool{}
	for i := 0; i < v.NumRows(); i++ {
		if v.IsNull("num", i) {
			continue
		}
		orig := int(v.Num("num", i))
		if orig < 0 || orig >= 1037 {
			t.Fatalf("sampled out-of-range row %d", orig)
		}
		if seen[orig] {
			t.Fatalf("row %d sampled twice — not without replacement", orig)
		}
		seen[orig] = true
	}
}

// TestRollupMatchesStats checks the roll-up against fresh row-order value
// copies under assorted chunk sizes: counts and extrema exactly, moments up
// to association error, sketch quantiles within their rank window of an
// exact sorted copy, and domain counts against the string values.
func TestRollupMatchesStats(t *testing.T) {
	for _, csize := range []int{7, 64, 2048, 100_000} {
		d := sampleTestDataset(t, 5_000, csize)
		r := d.Rollup("num")
		nums := d.NumericValues("num")
		n := len(nums)
		if r.Rows != d.NumRows() || r.Nulls != d.NumRows()-n || r.Moments.Count != n {
			t.Fatalf("csize %d: counts differ: rows %d nulls %d count %d, values %d", csize, r.Rows, r.Nulls, r.Moments.Count, n)
		}
		lo, hi := slices.Min(nums), slices.Max(nums)
		if r.Min() != lo || r.Max() != hi {
			t.Fatalf("csize %d: extrema (%v,%v), want (%v,%v)", csize, r.Min(), r.Max(), lo, hi)
		}
		if !closeMoment(rollupMean(r), stats.Mean(nums), hi, n) || !closeMoment(rollupStdDev(r), stats.StdDev(nums), hi, n) {
			t.Fatalf("csize %d: moments (%v,%v) vs flat (%v,%v)", csize, rollupMean(r), rollupStdDev(r), stats.Mean(nums), stats.StdDev(nums))
		}
		// Sketch quantiles stay within the advertised rank error of exact.
		sort.Float64s(nums)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			got := r.Quantile(q)
			rankTol := r.Sketch.RankError() * float64(n)
			lo := int(math.Max(0, math.Floor(q*float64(n-1)-rankTol-1)))
			hi := int(math.Min(float64(n-1), math.Ceil(q*float64(n-1)+rankTol+1)))
			if got < nums[lo] || got > nums[hi] {
				t.Fatalf("csize %d q=%v: sketch %v outside rank window [%v,%v]",
					csize, q, got, nums[lo], nums[hi])
			}
		}

		rc := d.Rollup("cat")
		strs := d.StringValues("cat")
		counts := make(map[string]int)
		for _, v := range strs {
			counts[v]++
		}
		if rc.Nulls != d.NumRows()-len(strs) || len(rc.Counts) != len(counts) {
			t.Fatalf("csize %d: string domains differ: %d nulls, %d values", csize, rc.Nulls, len(rc.Counts))
		}
		for v, n := range counts {
			if rc.Counts[v] != n {
				t.Fatalf("csize %d: count[%q] = %d, want %d", csize, v, rc.Counts[v], n)
			}
		}
		distinct := make([]string, 0, len(counts))
		for v := range counts {
			distinct = append(distinct, v)
		}
		sort.Strings(distinct)
		if !sameStrings(rc.Distinct, distinct) || !sameStrings(d.DistinctStrings("cat"), distinct) {
			t.Fatalf("csize %d: distinct %v, want %v", csize, rc.Distinct, distinct)
		}
	}
}

func TestRollupDirtyChunkRefit(t *testing.T) {
	d := sampleTestDataset(t, 8_000, 1000)
	r1 := d.Rollup("num")
	c := d.Column("num")
	// Capture the cached per-chunk blocks.
	before := make([]*chunkStats, len(c.chunks))
	for i, ch := range c.chunks {
		before[i] = ch.stats.Load()
		if before[i] == nil {
			t.Fatalf("chunk %d stats not cached after Rollup", i)
		}
	}
	d.SetNum("num", 2500, 1e6) // chunk 2
	r2 := d.Rollup("num")
	if r2 == r1 {
		t.Fatal("rollup not invalidated by write")
	}
	if r2.Max() != 1e6 {
		t.Fatalf("rollup Max = %v after write", r2.Max())
	}
	for i, ch := range c.chunks {
		if i == 2 {
			if ch.stats.Load() == before[i] {
				t.Fatal("dirty chunk block not re-fit")
			}
			continue
		}
		if ch.stats.Load() != before[i] {
			t.Fatalf("clean chunk %d block re-fit — roll-up is not incremental", i)
		}
	}
}

func TestPrivatizeChunks(t *testing.T) {
	d := sampleTestDataset(t, 4_096, 256)
	d.Fingerprint() // warm caches
	d.Rollup("num")

	cp := d.Clone()
	c := cp.MutableColumn("num")
	c.PrivatizeChunks()
	// Privatized chunks carry their caches: stats blocks survive.
	for i, ch := range c.chunks {
		if ch.shared.Load() {
			t.Fatalf("chunk %d still shared after PrivatizeChunks", i)
		}
		if ch.stats.Load() == nil {
			t.Fatalf("chunk %d lost its stats cache", i)
		}
	}
	// Writes after privatization behave exactly like the per-chunk path.
	for k := 0; k < c.NumChunks(); k++ {
		w := c.MutableChunk(k)
		for i := range w.Nums {
			w.Nums[i] *= 2
		}
	}
	if got := cp.Num("num", 100); got != 200 {
		t.Fatalf("cell = %v after dense write", got)
	}
	if got := d.Num("num", 100); got != 100 {
		t.Fatalf("write leaked into the source: %v", got)
	}
	if d.Fingerprint() == cp.Fingerprint() {
		t.Fatal("fingerprints equal after divergence")
	}
	// Idempotent and cheap when nothing is shared.
	c.PrivatizeChunks()

	// Panics on a shared column header, like MutableChunk.
	shared := d.Clone().Column("num")
	defer func() {
		if recover() == nil {
			t.Fatal("PrivatizeChunks on shared column did not panic")
		}
	}()
	shared.PrivatizeChunks()
}

func TestChunkMoments(t *testing.T) {
	d := sampleTestDataset(t, 1_000, 100)
	c := d.Column("num")
	m := c.ChunkMoments(3)
	// Chunk 3 covers rows 300..399; row 388 is NULL (388 = 4*97).
	if m.Count != 99 {
		t.Fatalf("Count = %d, want 99", m.Count)
	}
	if m.Min != 300 || m.Max != 399 {
		t.Fatalf("extrema = (%v, %v)", m.Min, m.Max)
	}
	if c.ChunkMoments(0).Min != 1 { // row 0 is NULL
		t.Fatalf("chunk 0 Min = %v, want 1", c.ChunkMoments(0).Min)
	}
	if got := d.Column("cat").ChunkMoments(0); got.Count != 0 {
		t.Fatalf("non-numeric moments = %+v", got)
	}
}
