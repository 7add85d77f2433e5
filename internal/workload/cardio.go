package workload

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/profile"
)

// NewCardioScenario generates case study 3 (Section 5.1) with n-row
// datasets: a cardiovascular disease prediction pipeline whose failing
// dataset stores height in inches instead of the centimeters the
// (pretrained) model assumes. The ground-truth root cause is the numeric
// Domain profile of height, fixed by a monotonic linear transformation. The
// failing dataset additionally has a spurious weight–blood-pressure
// correlation whose noise-adding repair *hurts* the classifier, violating
// assumption A3 — the reason group testing is NA for this case in the
// paper. The system is trained once, at construction, on a separate
// cm-format training sample — mirroring a deployed model with frozen format
// assumptions.
func NewCardioScenario(n int, seed int64) *Scenario {
	train := genPatients(n, seed, false)
	pass := genPatients(n, seed+1, false)
	fail := genPatients(n, seed+2, true)
	return &Scenario{
		Pass:    pass,
		Fail:    fail,
		System:  newCardioSystem(train),
		Tau:     0.3,
		Options: cardioOptions(),
	}
}

// cardioOptions is the scenario's discovery configuration. Domain
// knowledge (Section 2, Scope): the suspected faults are numeric format
// and dependence drifts, so selectivity profiles are excluded from the
// candidate classes for this pipeline.
func cardioOptions() profile.Options {
	return profile.Options{Classes: map[string]bool{"selectivity": false}}
}

// genPatients synthesizes patient records. Disease risk is driven by BMI
// (weight and height), age, and systolic pressure. The failing variant
// converts height to inches and couples weight tightly to diastolic
// pressure (the A3-violating spurious profile).
func genPatients(n int, seed int64, failing bool) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	age := make([]float64, n)
	height := make([]float64, n)
	weight := make([]float64, n)
	apHi := make([]float64, n)
	apLo := make([]float64, n)
	chol := make([]string, n)
	target := make([]string, n)
	for i := 0; i < n; i++ {
		age[i] = 35 + rng.Float64()*40
		h := 150 + rng.Float64()*40 // cm
		height[i] = h
		apLo[i] = 60 + rng.Float64()*40
		apHi[i] = apLo[i] + 20 + rng.Float64()*40
		if failing {
			// Spurious tight coupling of weight to diastolic pressure: a
			// discriminative Indep profile whose repair (noise on weight)
			// destroys the model's main signal (A3 violation). The marginal
			// weight range matches the passing data.
			weight[i] = 50 + (apLo[i]-60)/40*35 + rng.Float64()*15
		} else {
			weight[i] = 50 + rng.Float64()*50
		}
		chol[i] = []string{"normal", "above", "high"}[rng.Intn(3)]
		// Risk grows with stature and weight so a model trained on cm data
		// predicts "no disease" across the board when heights arrive in
		// inches (59–75), collapsing recall — the paper's failure mode.
		risk := 0.06
		if h > 172 {
			risk += 0.55
		}
		if weight[i] > 85 {
			risk += 0.3
		}
		if apHi[i] > 150 {
			risk += 0.08
		}
		if rng.Float64() < risk {
			target[i] = "1"
		} else {
			target[i] = "0"
		}
	}
	heightNull := make([]bool, n)
	if failing {
		for i := range height {
			height[i] /= 2.54 // store in inches
		}
		// A sprinkle of missing heights: the format migration also dropped
		// some values, giving height a second discriminative profile (its
		// graph degree tops the ranking, as in the paper's case study).
		for i := 0; i < n; i += 53 {
			heightNull[i] = true
		}
	}
	d := dataset.New()
	d.MustAddNumeric("age", age)
	if err := d.AddNumericColumn("height", height, heightNull); err != nil {
		panic(err)
	}
	d.MustAddNumeric("weight", weight)
	d.MustAddNumeric("ap_hi", apHi)
	d.MustAddNumeric("ap_lo", apLo)
	d.MustAddCategorical("cholesterol", chol)
	d.MustAddCategorical("target", target)
	return d
}

// cardioSystem holds an AdaBoost model pretrained on cm-format data; its
// malfunction on a dataset is 1 − recall of the disease class — the
// pipeline "does not optimize for false positives" (Section 5.1).
type cardioSystem struct {
	enc   *ml.Encoder
	model *ml.AdaBoost
}

func newCardioSystem(train *dataset.Dataset) *cardioSystem {
	enc, err := ml.NewEncoder(train,
		[]string{"age", "height", "weight", "ap_hi", "ap_lo", "cholesterol"}, "target", "1")
	if err != nil {
		panic(err)
	}
	X, y, _, err := enc.Encode(train)
	if err != nil {
		panic(err)
	}
	model := &ml.AdaBoost{Rounds: 40}
	model.Fit(X, y)
	return &cardioSystem{enc: enc, model: model}
}

// Name implements pipeline.System.
func (s *cardioSystem) Name() string { return "cardio-prediction" }

// MalfunctionScore implements pipeline.System. Only the labelled
// disease rows bear on recall, so only they are predicted, each from one
// reused feature vector.
func (s *cardioSystem) MalfunctionScore(d *dataset.Dataset) float64 {
	labelled, tp, fn := 0, 0, 0
	err := s.enc.EncodeEach(d, func(x []float64, y, _ int) {
		labelled++
		if y != 1 {
			return
		}
		if s.model.Predict(x) == 1 {
			tp++
		} else {
			fn++
		}
	})
	if err != nil || labelled == 0 {
		return 1
	}
	if tp+fn == 0 {
		return 0 // no disease row to miss
	}
	return 1 - float64(tp)/float64(tp+fn)
}
