package workload

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ml"
)

// NewIncomeScenario generates case study 2 (Section 5.1) with
// census-style passing and failing datasets of n rows: a fairness-aware
// income prediction pipeline whose failing dataset has an injected
// dependence between the target and sex. In both datasets, occupation
// correlates with sex (as in real census data), so a biased label can leak
// through occupation even though sex itself is not a feature. The failing
// dataset additionally forces most women to the "low" income label. The
// ground-truth root cause is the Indep profile over (sex, target).
func NewIncomeScenario(n int, seed int64) *Scenario {
	pass := genCensus(n, seed, false)
	fail := genCensus(n, seed+1, true)
	return &Scenario{
		Pass:   pass,
		Fail:   fail,
		System: &incomeSystem{},
		Tau:    0.35,
	}
}

var (
	educations  = []string{"HS", "BS", "MS", "PhD"}
	occupations = []string{"tech", "exec", "admin", "service"}
)

func genCensus(n int, seed int64, biased bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	age := make([]float64, n)
	hours := make([]float64, n)
	edu := make([]string, n)
	occ := make([]string, n)
	sex := make([]string, n)
	target := make([]string, n)
	for i := 0; i < n; i++ {
		age[i] = 20 + rng.Float64()*45
		hours[i] = 20 + rng.Float64()*40
		edu[i] = educations[rng.Intn(len(educations))]
		female := rng.Float64() < 0.5
		if female {
			sex[i] = "Female"
		} else {
			sex[i] = "Male"
		}
		// Occupation correlates mildly with sex: the proxy channel through
		// which a biased label can leak into a model that never sees sex.
		if female {
			occ[i] = pickOcc(rng, 0.2, 0.2, 0.32, 0.28)
		} else {
			occ[i] = pickOcc(rng, 0.3, 0.26, 0.2, 0.24)
		}
		// Base income model: education and hours dominate, occupation is a
		// weak factor — keeping the passing pipeline's disparate impact low.
		p := 0.2
		switch edu[i] {
		case "BS":
			p += 0.18
		case "MS":
			p += 0.3
		case "PhD":
			p += 0.4
		}
		if hours[i] > 45 {
			p += 0.15
		}
		if occ[i] == "exec" || occ[i] == "tech" {
			p += 0.05
		}
		if biased && female {
			// Injected dependence: women are pushed to "low" regardless,
			// and their recorded hours shrink — a proxy the model can read.
			p *= 0.1
			hours[i] -= 12
		}
		if rng.Float64() < p {
			target[i] = "high"
		} else {
			target[i] = "low"
		}
	}
	d := dataset.New()
	d.MustAddNumeric("age", age)
	d.MustAddNumeric("hours", hours)
	d.MustAddCategorical("education", edu)
	d.MustAddCategorical("occupation", occ)
	d.MustAddCategorical("sex", sex)
	d.MustAddCategorical("target", target)
	return d
}

func pickOcc(rng *rand.Rand, tech, exec, admin, service float64) string {
	r := rng.Float64()
	switch {
	case r < tech:
		return "tech"
	case r < tech+exec:
		return "exec"
	case r < tech+exec+admin:
		return "admin"
	default:
		return "service"
	}
}

// incomeSystem trains a random forest on the non-sensitive features and
// reports the normalized disparate impact of its predictions w.r.t. sex —
// the paper's malfunction score for this pipeline.
type incomeSystem struct{}

// Name implements pipeline.System.
func (s *incomeSystem) Name() string { return "income-prediction" }

// MalfunctionScore implements pipeline.System.
func (s *incomeSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	enc, err := ml.NewEncoder(d, []string{"age", "hours", "education", "occupation"}, "target", "high")
	if err != nil {
		return 1
	}
	X, y, rows, err := enc.Encode(d)
	if err != nil || len(X) == 0 {
		return 1
	}
	model := &ml.RandomForest{Trees: 15, MaxDepth: 7, MTry: 6, Seed: 13}
	model.Fit(X, y)
	pred := ml.PredictAll(model, X)
	return ml.NormalizedDisparateImpact(ml.DisparateImpact(d, rows, pred, "sex", "Female"))
}
