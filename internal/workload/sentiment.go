package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// NewSentimentScenario generates case study 1 (Section 5.1) with passing
// (IMDb-style labels {-1,1}) and failing (Twitter-style labels {0,4})
// review datasets of n rows each: a pretrained sentiment classifier that
// assumes target ∈ {-1, 1}, confronted with a dataset that encodes
// negative/positive as {0, 4} (the sentiment140 convention). The
// ground-truth root cause is the Domain profile of target.
func NewSentimentScenario(n int, seed int64) *Scenario {
	pass := genReviews(n, seed, "-1", "1")
	fail := genReviews(n, seed+1, "0", "4")
	return &Scenario{
		Pass:   pass,
		Fail:   fail,
		System: &sentimentSystem{lexicon: ml.NewSentimentLexicon()},
		Tau:    0.4,
	}
}

// review building blocks: strongly polar sentences assembled from the
// lexicon vocabulary plus neutral filler.
var (
	posTemplates = []string{
		"an excellent movie with a wonderful cast and a great story",
		"i loved every minute, truly the best film this year",
		"brilliant directing, superb acting, an amazing experience",
		"a delightful and charming gem, absolutely terrific",
		"fantastic visuals and an outstanding, satisfying finale",
		"remarkable and impressive, a solid and enjoyable watch",
	}
	negTemplates = []string{
		"a terrible script with awful pacing and a boring plot",
		"i hated it, easily the worst film of the decade",
		"dull, bland, and painfully tedious from start to finish",
		"a disappointing mess, weak acting and a pathetic ending",
		"dreadful dialogue, atrocious effects, simply unwatchable",
		"mediocre at best, a forgettable waste of two hours",
	}
	fillerWords = []string{"the", "plot", "scene", "camera", "cast", "music", "tone", "story", "film", "movie"}
)

// genReviews builds a review dataset with the given negative/positive
// label encodings.
func genReviews(n int, seed int64, negLabel, posLabel string) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, n)
	targets := make([]string, n)
	for i := 0; i < n; i++ {
		positive := rng.Float64() < 0.5
		var base string
		if positive {
			base = posTemplates[rng.Intn(len(posTemplates))]
			targets[i] = posLabel
		} else {
			base = negTemplates[rng.Intn(len(negTemplates))]
			targets[i] = negLabel
		}
		// ~8% label noise keeps the passing malfunction realistic (the
		// paper's IMDb pass score is 0.09).
		if rng.Float64() < 0.08 {
			if targets[i] == posLabel {
				targets[i] = negLabel
			} else {
				targets[i] = posLabel
			}
		}
		filler := make([]string, 2+rng.Intn(4))
		for j := range filler {
			filler[j] = fillerWords[rng.Intn(len(fillerWords))]
		}
		texts[i] = fmt.Sprintf("%s %s", base, strings.Join(filler, " "))
	}
	d := dataset.New()
	d.MustAddText("text", texts)
	d.MustAddCategorical("target", targets)
	return d
}

// sentimentSystem predicts sentiment with the lexicon scorer and compares
// the prediction string ("-1"/"1") against the target attribute: the
// malfunction is the misclassification rate. With {0,4}-encoded targets no
// prediction ever matches, so the failing score is 1.0 — exactly the
// paper's observation.
type sentimentSystem struct {
	lexicon *ml.SentimentLexicon
}

// Name implements pipeline.System.
func (s *sentimentSystem) Name() string { return "sentiment-prediction" }

// MalfunctionScore implements pipeline.System.
func (s *sentimentSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	text := d.Column("text")
	target := d.Column("target")
	if text == nil || target == nil || d.NumRows() == 0 {
		return 1
	}
	wrong := 0
	for k := 0; k < text.NumChunks(); k++ {
		tv, gv := text.Chunk(k), target.Chunk(k)
		for i := range tv.Null {
			if tv.Null[i] || gv.Null[i] {
				wrong++
				continue
			}
			pred := "-1"
			if s.lexicon.Classify(tv.Strs[i]) > 0 {
				pred = "1"
			}
			if pred != gv.Strs[i] {
				wrong++
			}
		}
	}
	return float64(wrong) / float64(d.NumRows())
}
