package transform

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// TestOutputsIndependentOfChunkLayout applies every transformation that fits
// a statistic on the column it rewrites to one 1k-row content laid out at
// three chunk sizes, and requires identical output fingerprints, and
// identical Outlier violation and coverage scores. The fleet
// worker rebuilds each request at the default chunk size, so a transform
// whose output depended on the layout would score a different dataset
// remotely than locally.
func TestOutputsIndependentOfChunkLayout(t *testing.T) {
	const rows = 1000
	gen := rand.New(rand.NewSource(11))
	v, w := make([]float64, rows), make([]float64, rows)
	g := make([]string, rows)
	vNull, gNull := make([]bool, rows), make([]bool, rows)
	for i := range v {
		v[i] = 1000.0/3 + 37.3*gen.NormFloat64()
		if i%97 == 5 {
			v[i] = 1e4 / 3 // outliers
		}
		w[i] = 0.8*v[i] + gen.NormFloat64()
		g[i] = []string{"b", "a", "c", "a", "b"}[gen.Intn(5)]
		vNull[i] = i%31 == 0
		gNull[i] = i%17 == 0
	}
	build := func(csize int) *dataset.Dataset {
		// The Add* methods window their slices in place: hand each layout
		// its own copies.
		d := dataset.NewChunked(csize)
		if err := d.AddNumericColumn("v", append([]float64(nil), v...), append([]bool(nil), vNull...)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddNumericColumn("w", append([]float64(nil), w...), nil); err != nil {
			t.Fatal(err)
		}
		if err := d.AddCategoricalColumn("g", append([]string(nil), g...), append([]bool(nil), gNull...)); err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := build(dataset.DefaultChunkSize)
	dist := profile.DiscoverDistribution(base, "v")
	for i := range dist.Quantiles {
		dist.Quantiles[i] += 7.25
	}
	outlier := &profile.Outlier{Attr: "v", K: 2}
	trs := []Transformation{
		&ReplaceOutliers{Profile: outlier},
		&ClampOutliers{Profile: outlier},
		&Impute{Profile: &profile.Missing{Attr: "v"}},
		&Impute{Profile: &profile.Missing{Attr: "g"}},
		&NoiseBreak{Prof: &profile.IndepPearson{AttrA: "v", AttrB: "w", Alpha: 0.1}, Attr: "w"},
		&Recadence{Profile: &profile.Frequency{Attr: "v", MedianGap: 0.01}},
		&MedianShift{Profile: dist},
	}
	for _, tr := range trs {
		var want uint64
		for _, csize := range []int{7, 64, dataset.DefaultChunkSize} {
			out, err := tr.Apply(build(csize), rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatalf("%s at chunk size %d: %v", tr.Name(), csize, err)
			}
			got := out.Fingerprint()
			if csize == 7 {
				want = got
			} else if got != want {
				t.Errorf("%s: output fingerprint at chunk size %d is %x, at chunk size 7 %x", tr.Name(), csize, got, want)
			}
		}
		if want == base.Fingerprint() {
			t.Errorf("%s left the content unchanged: the case proves nothing", tr.Name())
		}
	}

	// The Outlier detector's scores must not depend on the layout either.
	// At this K the threshold K·σ lies within an ulp of the planted
	// outliers' distance from the mean: with σ and the mean taken from the
	// merged roll-up, chunk sizes 7 and 64 flagged all eleven and the
	// default size none.
	edge := &profile.Outlier{Attr: "v", K: 9.2600493125861778}
	var wantV, wantC float64
	for _, csize := range []int{7, 64, dataset.DefaultChunkSize} {
		d := build(csize)
		v, c := edge.Violation(d), (&ReplaceOutliers{Profile: edge}).Coverage(d)
		if csize == 7 {
			wantV, wantC = v, c
		} else if v != wantV || c != wantC {
			t.Errorf("Outlier at chunk size %d: violation %v, coverage %v; at chunk size 7 %v, %v", csize, v, c, wantV, wantC)
		}
	}
}
