package workload

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/profile"
)

// BenchmarkDiscriminative100k times one profile.Discriminative call per
// Figure 7 case study at 100k rows with one worker: discovery on the
// passing and failing datasets plus the violation filter. A cold call gets
// freshly generated datasets, as a run that has just read its CSVs does;
// a warm call reuses datasets whose chunk statistics and digests an
// earlier call already computed, so only profile discovery and evaluation
// allocate. Run it with -benchmem to see the bytes per call.
func BenchmarkDiscriminative100k(b *testing.B) {
	const rows, seed = 100_000, 4
	for _, c := range []struct {
		name string
		gen  func() (pass, fail *dataset.Dataset)
		opts profile.Options
	}{
		{"sentiment", func() (*dataset.Dataset, *dataset.Dataset) {
			return genReviews(rows, seed, "-1", "1"), genReviews(rows, seed+1, "0", "4")
		}, profile.Options{}},
		{"income", func() (*dataset.Dataset, *dataset.Dataset) {
			return genCensus(rows, seed, false), genCensus(rows, seed+1, true)
		}, profile.Options{}},
		{"cardio", func() (*dataset.Dataset, *dataset.Dataset) {
			return genPatients(rows, seed+1, false), genPatients(rows, seed+2, true)
		}, cardioOptions()},
	} {
		opts := c.opts
		opts.Workers = 1
		discriminative := func(b *testing.B, pass, fail *dataset.Dataset) {
			if len(profile.Discriminative(pass, fail, opts, 1e-9)) == 0 {
				b.Fatal("no discriminative profile")
			}
		}
		b.Run(c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pass, fail := c.gen()
				b.StartTimer()
				discriminative(b, pass, fail)
			}
		})
		b.Run(c.name+"/warm", func(b *testing.B) {
			pass, fail := c.gen()
			discriminative(b, pass, fail)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				discriminative(b, pass, fail)
			}
		})
	}
}

// BenchmarkIncomeScore times one oracle call of the Income case study on
// its 3k-row failing dataset: encoding, the 15-tree forest's training and
// prediction, and the disparate impact of the predictions.
func BenchmarkIncomeScore(b *testing.B) {
	sc := NewIncomeScenario(3000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = sc.System.MalfunctionScore(sc.Fail)
	}
}

// BenchmarkSentimentScore10k times one oracle call of the Sentiment case
// study on its 10k-row failing dataset: the lexicon scores every review.
func BenchmarkSentimentScore10k(b *testing.B) {
	sc := NewSentimentScenario(10_000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = sc.System.MalfunctionScore(sc.Fail)
	}
}

// BenchmarkCardioScore times one oracle call of the Cardio case study on
// its 10k-row failing dataset: the pretrained AdaBoost predicts every
// labelled disease row. Pretraining is set-up and not timed.
func BenchmarkCardioScore(b *testing.B) {
	sc := NewCardioScenario(10_000, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScore = sc.System.MalfunctionScore(sc.Fail)
	}
}

// BenchmarkCardioPretrain times the Cardio case study's set-up on a
// 10k-row training sample: encoding and 40 rounds of AdaBoost.
func BenchmarkCardioPretrain(b *testing.B) {
	train := genPatients(10_000, 4, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSystem = newCardioSystem(train)
	}
}

// benchScore and benchSystem keep the benchmarks' results alive.
var (
	benchScore  float64
	benchSystem *cardioSystem
)
