package profile

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// scratchDataset builds a rows-row dataset with a structured text code
// (AB-123), an unstructured text note, two correlated categorical columns
// and two correlated numeric columns, with NULLs in every column. drift
// lowercases some codes, adds a zone and rescales x, so violations are
// non-zero on it.
func scratchDataset(rows int, seed int64, drift bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	zones := []string{"eu", "us", "ap"}
	tiers := []string{"gold", "silver", "bronze"}
	words := []string{"late", "Delivery", "ok", "called twice!", "refund 2x"}
	code, note := make([]string, rows), make([]string, rows)
	zone, tier := make([]string, rows), make([]string, rows)
	x, y := make([]float64, rows), make([]float64, rows)
	textNull, catNull, numNull := make([]bool, rows), make([]bool, rows), make([]bool, rows)
	for i := 0; i < rows; i++ {
		code[i] = fmt.Sprintf("%c%c-%03d", 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(1000))
		note[i] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		z := rng.Intn(len(zones))
		zone[i], tier[i] = zones[z], tiers[(z+rng.Intn(2))%len(tiers)]
		x[i] = 20 + 10*float64(z) + 4*rng.NormFloat64()
		y[i] = 0.5*x[i] + rng.NormFloat64()
		if drift && i%5 == 0 {
			code[i] = fmt.Sprintf("ab-%d", i%100)
			zone[i] = "sa"
			x[i] *= 3
		}
		textNull[i], catNull[i], numNull[i] = i%97 == 0, i%89 == 0, i%83 == 0
	}
	d := dataset.New()
	for _, err := range []error{
		d.AddTextColumn("code", code, textNull),
		d.AddTextColumn("note", note, nil),
		d.AddCategoricalColumn("zone", zone, catNull),
		d.AddCategoricalColumn("tier", tier, nil),
		d.AddNumericColumn("x", x, numNull),
		d.AddNumericColumn("y", y, nil),
	} {
		if err != nil {
			panic(err)
		}
	}
	return d
}

// TestViolationScratchBoundedByChunk checks that every profile the default
// classes discover evaluates in place: one Violation call on a 200k-row
// dataset (four chunks) allocates at most one chunk of scratch plus 4 KiB,
// however many rows it reads.
func TestViolationScratchBoundedByChunk(t *testing.T) {
	const rows = 200_000
	pass, fail := scratchDataset(rows, 1, false), scratchDataset(rows, 2, true)
	if pass.Column("x").NumChunks() < 3 {
		t.Fatalf("dataset spans %d chunks, want at least 3", pass.Column("x").NumChunks())
	}
	profiles := Discover(pass, Options{})
	classes := make(map[string]bool)
	for _, p := range profiles {
		classes[p.Type()] = true
	}
	for _, c := range []string{"domain", "missing", "outlier", "selectivity", "indep"} {
		if !classes[c] {
			t.Fatalf("no %s profile discovered; the check would not cover that class", c)
		}
	}
	const calls = 3
	limit := uint64(dataset.DefaultChunkSize + 4<<10)
	var ms runtime.MemStats
	for _, p := range profiles {
		for _, d := range []*dataset.Dataset{pass, fail} {
			p.Violation(d) // warm the column roll-ups and digests
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			for i := 0; i < calls; i++ {
				p.Violation(d)
			}
			runtime.ReadMemStats(&ms)
			if per := (ms.TotalAlloc - before) / calls; per > limit {
				t.Errorf("%s: %d bytes allocated per Violation call, want at most %d", p, per, limit)
			}
		}
	}
}
