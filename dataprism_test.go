package dataprism_test

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"

	dataprism "repro"
	"repro/internal/workload"
)

func TestPublicAPIQuickPath(t *testing.T) {
	s := workload.NewSentimentScenario(400, 1)
	res, err := dataprism.Explain(context.Background(), dataprism.AsContextSystem(s.System), s.Tau, s.Pass, s.Fail)
	if err != nil {
		t.Fatalf("Explain failed: %v", err)
	}
	if !res.Found || len(res.Explanation) == 0 {
		t.Fatal("no explanation from the public entry point")
	}
	if res.Explanation[0].Profile.Key() != "domain:target" {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
}

func TestPublicAPIDiscovery(t *testing.T) {
	pass, fail := workload.Peoplepass(), workload.Peoplefail()
	opts := dataprism.DiscoveryOptions{}
	profiles := dataprism.DiscoverProfiles(pass, opts)
	if len(profiles) == 0 {
		t.Fatal("no profiles discovered")
	}
	disc := dataprism.DiscriminativeProfiles(pass, fail, opts)
	if len(disc) == 0 {
		t.Fatal("no discriminative profiles on the paper's tables")
	}
	for _, p := range disc {
		if len(dataprism.TransformationsFor(p)) == 0 {
			t.Errorf("profile %s has no transformations", p)
		}
	}
	pvts := dataprism.DiscoverPVTs(pass, fail, opts)
	if len(pvts) != len(disc) {
		t.Errorf("PVTs = %d, discriminative profiles = %d", len(pvts), len(disc))
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	s := workload.NewSentimentScenario(300, 2)
	pvts := dataprism.DiscoverPVTs(s.Pass, s.Fail, s.Options)
	e := &dataprism.Explainer{System: s.System, Tau: s.Tau, Seed: 2}
	grpTest := &dataprism.Explainer{System: s.System, Tau: s.Tau, Seed: 2, RandomBisection: true}
	for name, run := range map[string]func(context.Context, []*dataprism.PVT, *dataprism.Dataset) (*dataprism.Result, error){
		"bugdoc":  e.ExplainBugDocPVTsContext,
		"anchor":  e.ExplainAnchorPVTsContext,
		"grptest": grpTest.ExplainGroupTestPVTsContext,
	} {
		res, err := run(context.Background(), pvts, s.Fail)
		if err != nil {
			t.Errorf("%s failed: %v", name, err)
			continue
		}
		if res.FinalScore > s.Tau {
			t.Errorf("%s final score = %g", name, res.FinalScore)
		}
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "people.csv")
	if err := workload.Peoplefail().WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := dataprism.ReadCSVFile(path, dataprism.CSVInferOptions{TextColumns: []string{"name", "phone"}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 10 {
		t.Errorf("rows = %d", d.NumRows())
	}
}

func TestPublicAPIErrNoExplanation(t *testing.T) {
	s := workload.NewSentimentScenario(200, 3)
	stubborn := &dataprism.ContextSystemFunc{SystemName: "stubborn", Score: func(context.Context, *dataprism.Dataset) float64 { return 0.9 }}
	_, err := dataprism.Explain(context.Background(), stubborn, 0.1, s.Pass, s.Fail)
	if !errors.Is(err, dataprism.ErrNoExplanation) {
		t.Errorf("err = %v, want ErrNoExplanation", err)
	}
}

func TestExternalSystemEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("sh"); err != nil {
		t.Skip("sh not available")
	}
	// A tiny external "system": awk computes the fraction of rows whose
	// label column is outside {-1,1} — a stand-in for any real pipeline
	// invoked over CSV.
	// The target is the last CSV field; the free-text field may contain
	// commas, so match the line suffix rather than splitting on commas.
	script := `awk 'NR>1 { n++; if ($0 !~ /,(-1|1)$/) bad++ } END { if (n==0) print 1; else printf "%.6f\n", bad/n }'`
	sys := &dataprism.ExternalSystem{Command: []string{"sh", "-c", script}}

	s := workload.NewSentimentScenario(120, 7)
	ctx := context.Background()
	if r := sys.TryMalfunctionScore(ctx, s.Pass); r.Err != nil || r.Score != 0 {
		t.Fatalf("external pass score = %+v", r)
	}
	if r := sys.TryMalfunctionScore(ctx, s.Fail); r.Err != nil || r.Score != 1 {
		t.Fatalf("external fail score = %+v", r)
	}
	e := &dataprism.Explainer{FallibleSystem: sys, Tau: 0.1}
	res, err := e.ExplainGreedyPVTsContext(ctx, e.Candidates(s.Pass, s.Fail), s.Fail)
	if err != nil {
		t.Fatalf("Explain over external system failed: %v", err)
	}
	if res.Explanation[0].Profile.Key() != "domain:target" {
		t.Errorf("explanation = %s", res.ExplanationString())
	}
}

func TestVerifyExplanationPublic(t *testing.T) {
	s := workload.NewSentimentScenario(300, 8)
	res, err := dataprism.Explain(context.Background(), dataprism.AsContextSystem(s.System), s.Tau, s.Pass, s.Fail)
	if err != nil {
		t.Fatal(err)
	}
	ok, calls := dataprism.VerifyExplanation(context.Background(), dataprism.AsContextSystem(s.System), s.Tau, s.Fail, res.Explanation, 8, true)
	if !ok {
		t.Error("verification failed on a reported explanation")
	}
	if calls == 0 {
		t.Error("no oracle calls spent")
	}
}
