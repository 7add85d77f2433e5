// Package workload builds the paper's case studies as self-contained
// (system, passing dataset, failing dataset, τ) scenarios: the biased
// discount classifier of the running example (Figures 2–5), Sentiment
// Prediction, Income Prediction, and Cardiovascular Disease Prediction
// (Section 5.1). Real proprietary datasets and pretrained models are
// replaced by seeded generators and from-scratch models that reproduce each
// case's ground-truth root cause exactly (see DESIGN.md's substitution
// table).
package workload

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// Scenario is one case study: the system under debug, its passing and
// failing datasets, the acceptable malfunction threshold τ, and the
// discovery configuration the case study searches with.
type Scenario struct {
	Pass, Fail *dataset.Dataset
	System     pipeline.System
	Tau        float64
	Options    profile.Options
}

// Peoplefail returns the exact failing dataset of Figure 2: a logistic
// regression classifier trained on it discriminates against African
// Americans and women.
func Peoplefail() *dataset.Dataset {
	d := dataset.New()
	d.MustAddText("name", []string{
		"Shanice Johnson", "DeShawn Bad", "Malik Ayer", "Dustin Jenner",
		"Julietta Brown", "Molly Beasley", "Jake Bloom", "Luke Stonewald",
		"Scott Nossenson", "Gabe Erwin",
	})
	d.MustAddCategorical("gender", []string{"F", "M", "M", "M", "F", "F", "M", "M", "M", "M"})
	d.MustAddNumeric("age", []float64{45, 40, 60, 22, 41, 32, 25, 35, 25, 20})
	d.MustAddCategorical("race", []string{"A", "A", "A", "W", "W", "W", "W", "W", "W", "W"})
	zips := []string{"01004", "01004", "01005", "01009", "01009", "", "01101", "01101", "01101", ""}
	phones := []string{"2088556597", "2085374523", "2766465009", "7874891021", "", "7872899033", "4047747803", "4042127741", "", "4048421581"}
	if err := d.AddCategoricalColumn("zip_code", zips, nullMask(zips)); err != nil {
		panic(err)
	}
	if err := d.AddTextColumn("phone", phones, nullMask(phones)); err != nil {
		panic(err)
	}
	d.MustAddCategorical("high_expenditure", []string{"no", "no", "no", "yes", "yes", "no", "yes", "yes", "yes", "yes"})
	return d
}

// Peoplepass returns the exact passing dataset of Figure 3.
func Peoplepass() *dataset.Dataset {
	d := dataset.New()
	d.MustAddText("name", []string{
		"Darin Brust", "Rosalie Bad", "Kristine Hilyard", "Chloe Ayer",
		"Julietta Mchugh", "Doria Ely", "Kristan Whidden", "Rene Strelow",
		"Arial Brent",
	})
	d.MustAddCategorical("gender", []string{"M", "F", "F", "F", "F", "F", "F", "M", "M"})
	d.MustAddNumeric("age", []float64{25, 22, 50, 22, 51, 32, 25, 35, 45})
	d.MustAddCategorical("race", []string{"W", "W", "W", "A", "W", "A", "W", "W", "W"})
	zips := []string{"01004", "01005", "01004", "", "01009", "01101", "01101", "01101", "01102"}
	phones := []string{"2088556597", "", "2766465009", "7874891021", "9042899033", "", "4047747803", "6162127741", "4089065769"}
	if err := d.AddCategoricalColumn("zip_code", zips, nullMask(zips)); err != nil {
		panic(err)
	}
	if err := d.AddTextColumn("phone", phones, nullMask(phones)); err != nil {
		panic(err)
	}
	d.MustAddCategorical("high_expenditure", []string{"no", "no", "yes", "yes", "yes", "yes", "no", "yes", "yes"})
	return d
}

func nullMask(vals []string) []bool {
	mask := make([]bool, len(vals))
	for i, v := range vals {
		mask[i] = v == ""
	}
	return mask
}

// NewBiasScenario generates the running example at a size where a
// classifier's bias is statistically meaningful: the discount-prediction
// pipeline of Example 1 / Section 4.1. The failing dataset exhibits the two
// ground-truth issues of Section 4.1: high_expenditure is strongly
// dependent on race (through zip_code, which the model uses as a feature),
// and female high spenders are heavily under-represented. The system trains
// a logistic regression on (age, zip_code) — the sensitive attributes are
// dropped, as Anita does — and reports the worse of the normalized
// disparate impacts w.r.t. race and gender.
func NewBiasScenario(n int, seed int64) *Scenario {
	pass := genPeople(n, seed, false)
	fail := genPeople(n, seed+1, true)
	return &Scenario{
		Pass:   pass,
		Fail:   fail,
		System: &biasSystem{},
		Tau:    0.25,
	}
}

// genPeople synthesizes a people table. In the biased variant, the A-heavy
// zip codes see few discounts, and women cluster in those zips.
func genPeople(n int, seed int64, biased bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	aZips := []string{"01004", "01005"}
	wZips := []string{"01101", "01102"}
	gender := make([]string, n)
	age := make([]float64, n)
	race := make([]string, n)
	zip := make([]string, n)
	high := make([]string, n)
	for i := 0; i < n; i++ {
		age[i] = 20 + rng.Float64()*40
		aHeavy := rng.Float64() < 0.5
		if aHeavy {
			zip[i] = aZips[rng.Intn(len(aZips))]
		} else {
			zip[i] = wZips[rng.Intn(len(wZips))]
		}
		if biased {
			// Zip proxies race; gender clusters with zip; discounts follow zip.
			if aHeavy {
				race[i] = pick(rng, "A", 0.85)
				gender[i] = pick(rng, "F", 0.7)
				high[i] = pick(rng, "yes", 0.1)
			} else {
				race[i] = pick(rng, "A", 0.1)
				gender[i] = pick(rng, "F", 0.25)
				high[i] = pick(rng, "yes", 0.8)
			}
		} else {
			race[i] = pick(rng, "A", 0.3)
			gender[i] = pick(rng, "F", 0.5)
			// Discounts depend mildly on age only.
			p := 0.35 + 0.3*(age[i]-20)/40
			high[i] = pick(rng, "yes", p)
		}
	}
	d := dataset.New()
	d.MustAddCategorical("gender", gender)
	d.MustAddNumeric("age", age)
	d.MustAddCategorical("race", race)
	d.MustAddCategorical("zip_code", zip)
	d.MustAddCategorical("high_expenditure", high)
	return d
}

func pick(rng *rand.Rand, hit string, p float64) string {
	if rng.Float64() < p {
		return hit
	}
	switch hit {
	case "A":
		return "W"
	case "F":
		return "M"
	case "yes":
		return "no"
	default:
		return ""
	}
}

// biasSystem trains a logistic regression to predict high_expenditure from
// (age, zip_code) and scores the worse of the race and gender disparate
// impacts of its predictions — the malfunction of Example 1.
type biasSystem struct{}

// Name implements pipeline.System.
func (s *biasSystem) Name() string { return "discount-classifier" }

// MalfunctionScore implements pipeline.System.
func (s *biasSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	enc, err := ml.NewEncoder(d, []string{"age", "zip_code"}, "high_expenditure", "yes")
	if err != nil {
		return 1
	}
	X, y, rows, err := enc.Encode(d)
	if err != nil || len(X) == 0 {
		return 1
	}
	model := &ml.LogisticRegression{Iterations: 150}
	model.Fit(X, y)
	pred := ml.PredictAll(model, X)
	raceNDI := ml.NormalizedDisparateImpact(ml.DisparateImpact(d, rows, pred, "race", "A"))
	genderNDI := ml.NormalizedDisparateImpact(ml.DisparateImpact(d, rows, pred, "gender", "F"))
	if raceNDI > genderNDI {
		return raceNDI
	}
	return genderNDI
}
