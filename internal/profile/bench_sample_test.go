package profile

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// --- Sublinear discovery benchmarks -------------------------------------
//
// These measure profile discovery at search-relevant dataset shapes under
// exact and sampled fitting (BENCH_pr7.json). The dataset is the rows×20
// shape of the dataset-substrate benchmarks: 10 numeric + 10 categorical
// columns. "exact" fits every profile on the full dataset; "sampled" fits
// the expensive classes on a deterministic 2000-row reservoir with error
// bounds (Options.Sample). Both modes pay the same one-time per-chunk
// stats warm-up; each sub-benchmark reports that first cold discovery as
// the "cold-ns" metric and then times warm re-discovery — the regime a
// search loop lives in, where chunk caches survive across candidate
// datasets and only the profile fits recur. The 10M-row shape is the
// acceptance target and only runs when DATAPRISM_BENCH_LARGE is set — it
// allocates multiple GB and exact fits take minutes, far too heavy for
// the CI -benchtime=1x smoke run.

// discoveryBenchCap is the sample size used by the sampled mode: the
// Hoeffding bound at m=2000 gives ε≈0.030 at 95% confidence.
const discoveryBenchCap = 2000

func discoveryBenchRows() []int {
	rows := []int{100_000}
	if os.Getenv("DATAPRISM_BENCH_LARGE") != "" {
		rows = append(rows, 10_000_000)
	}
	return rows
}

// discoveryBenchOpts enables the expensive profile classes the sampling
// layer targets (fd, unique, inclusion, indep-causal, distribution) on
// top of the default set; sampleCap > 0 turns on sampled fitting.
func discoveryBenchOpts(sampleCap int) Options {
	opts := Options{}
	opts.Classes = map[string]bool{
		"fd": true, "unique": true, "inclusion": true,
		"indep-causal": true, "distribution": true,
	}
	if sampleCap > 0 {
		opts.Sample = SampleOptions{Cap: sampleCap, Seed: 1}
	}
	return opts
}

// BenchmarkProfileDiscovery measures warm-cache discovery of the full
// profile set, exact vs sampled.
func BenchmarkProfileDiscovery(b *testing.B) {
	for _, rows := range discoveryBenchRows() {
		for _, mode := range []string{"exact", "sampled"} {
			sampleCap := 0
			if mode == "sampled" {
				sampleCap = discoveryBenchCap
			}
			b.Run(fmt.Sprintf("rows=%d/mode=%s", rows, mode), func(b *testing.B) {
				d := benchTable(rows, 20)
				opts := discoveryBenchOpts(sampleCap)
				start := time.Now()
				if got := Discover(d, opts); len(got) == 0 {
					b.Fatal("no profiles")
				}
				coldNs := float64(time.Since(start).Nanoseconds())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := Discover(d, opts); len(got) == 0 {
						b.Fatal("no profiles")
					}
				}
				// After the loop: ResetTimer deletes earlier user metrics.
				b.ReportMetric(coldNs, "cold-ns")
			})
		}
	}
}

// BenchmarkReprofileSparse measures re-discovery after a sparse
// intervention, the inner loop of a debugging session: clone the profiled
// dataset, write one cell, discover again. The write dirties a single
// chunk, so the stats/sample/digest caches of every clean chunk are
// reused; under sampled fitting the whole re-profile is dirty-chunk work
// plus sample-sized fits, independent of the clean bulk of the dataset.
func BenchmarkReprofileSparse(b *testing.B) {
	for _, rows := range discoveryBenchRows() {
		for _, mode := range []string{"exact", "sampled"} {
			sampleCap := 0
			if mode == "sampled" {
				sampleCap = discoveryBenchCap
			}
			b.Run(fmt.Sprintf("rows=%d/mode=%s", rows, mode), func(b *testing.B) {
				d := benchTable(rows, 20)
				opts := discoveryBenchOpts(sampleCap)
				if got := Discover(d, opts); len(got) == 0 {
					b.Fatal("no profiles")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cp := d.Clone()
					cp.SetNum("n0", (i*7919+1)%rows, 42)
					if got := Discover(cp, opts); len(got) == 0 {
						b.Fatal("no profiles")
					}
				}
			})
		}
	}
}
