package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
)

// NewEZGoScenario generates the paper's Example 2 with batches of n
// vehicles: a toll-collection pipeline that processes vehicle batches
// within a fixed time budget, falling back to a slow OCR for vehicles
// without a toll pass — and the OCR is extremely slow on black license
// plates photographed in low illumination. A batch with a skewed share of
// such vehicles blows the deadline. The passing batch has ~5% hard cases
// (black plate, low illumination, no toll pass); the failing batch has ~35%
// — the "significantly skewed distribution" of Example 2. The ground-truth
// root cause is the Selectivity profile of the hard-case predicate; the fix
// under-samples hard cases back to the expected rate (operationally: route
// the excess to a different batch).
func NewEZGoScenario(n int, seed int64) *Scenario {
	pass := genBatch(n, seed, 0.05)
	fail := genBatch(n, seed+1, 0.35)
	return &Scenario{
		Pass:   pass,
		Fail:   fail,
		System: newEZGoSystem(n),
		Tau:    0.2,
	}
}

// genBatch synthesizes one camera batch with the given hard-case rate.
func genBatch(n int, seed int64, hardRate float64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	plate := make([]string, n)
	color := make([]string, n)
	illum := make([]string, n)
	tollPass := make([]string, n)
	for i := 0; i < n; i++ {
		plate[i] = fmt.Sprintf("%c%c-%03d", 'A'+rng.Intn(26), 'A'+rng.Intn(26), rng.Intn(1000))
		if rng.Float64() < hardRate {
			color[i] = "black"
			illum[i] = "low"
			tollPass[i] = "no"
			continue
		}
		color[i] = []string{"white", "yellow", "black"}[rng.Intn(3)]
		illum[i] = []string{"normal", "bright", "low"}[rng.Intn(3)]
		// Most easy vehicles have a toll pass; some need (fast) OCR.
		if rng.Float64() < 0.7 {
			tollPass[i] = "yes"
		} else {
			tollPass[i] = "no"
		}
		// Avoid accidentally minting extra hard cases among the easy pool.
		if color[i] == "black" && illum[i] == "low" && tollPass[i] == "no" {
			illum[i] = "normal"
		}
	}
	d := dataset.New()
	d.MustAddText("plate", plate)
	d.MustAddCategorical("plate_color", color)
	d.MustAddCategorical("illumination", illum)
	d.MustAddCategorical("toll_pass", tollPass)
	return d
}

// ezgoSystem simulates the batch processor: per-vehicle cost is negligible
// with a toll pass, one unit for fast OCR, and a large constant for the
// pathological black-plate/low-light OCR path. The malfunction is the
// normalized overrun of the batch time budget.
type ezgoSystem struct {
	budget float64
}

// newEZGoSystem sizes the time budget for a batch of n vehicles: enough for
// every vehicle to need fast OCR plus a 10% share of slow cases.
func newEZGoSystem(n int) *ezgoSystem {
	const slowCost = 40.0
	return &ezgoSystem{budget: float64(n) + 0.10*float64(n)*slowCost}
}

// Name implements pipeline.System.
func (s *ezgoSystem) Name() string { return "ezgo-batch-processor" }

// MalfunctionScore implements pipeline.System.
func (s *ezgoSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	color := d.Column("plate_color")
	illum := d.Column("illumination")
	toll := d.Column("toll_pass")
	if color == nil || illum == nil || toll == nil || d.NumRows() == 0 {
		return 1
	}
	const slowCost = 40.0
	total := 0.0
	for k := 0; k < toll.NumChunks(); k++ {
		tv, cv, iv := toll.Chunk(k), color.Chunk(k), illum.Chunk(k)
		for i := range tv.Null {
			if !tv.Null[i] && tv.Strs[i] == "yes" {
				total += 0.1 // transponder read
				continue
			}
			if !cv.Null[i] && !iv.Null[i] && cv.Strs[i] == "black" && iv.Strs[i] == "low" {
				total += slowCost
			} else {
				total += 1 // fast OCR
			}
		}
	}
	overrun := total/s.budget - 1
	if overrun < 0 {
		return 0
	}
	if overrun > 1 {
		return 1
	}
	return overrun
}
