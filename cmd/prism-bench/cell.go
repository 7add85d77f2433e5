package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/pipeline/remote"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/scorestore"
	"repro/internal/synth"
)

// eps is the Explainer's default discriminative threshold.
const eps = 1e-9

// cellRun is one debugging run of a (scenario, algorithm) cell.
type cellRun struct {
	scenario, algo string
	secs           float64
	allocMB        float64
	calls          int64 // raw oracle calls, baseline scores included
	searchCalls    int64 // raw oracle calls made inside the search
	res            *core.Result
	err            error
	verified       bool       // set only when the cell was run with verify
	cs             *caseStudy // nil for synth cells
	warm           *cellRun   // resume: the re-run against the reopened store
}

func (r *cellRun) key() string { return r.scenario + "/" + r.algo }

// finish runs after a cell's timer stops. With verify set it checks a found
// explanation against Definitions 10 and 11 using the unmetered system.
// It then drops the repaired dataset, so kept reps pin no inputs.
func (r *cellRun) finish(ctx context.Context, verify bool, sys pipeline.ContextSystem, tau float64, fail *dataset.Dataset, seed int64) {
	if r.res == nil {
		return
	}
	if verify && r.res.Found {
		r.verified, _ = core.VerifyExplanationContext(ctx, sys, tau, fail, r.res.Explanation, seed, true)
	}
	r.res.Transformed = nil
}

// outcome is what must not change between reps, between fleet and local
// runs, or against the golden file.
type outcome struct {
	Explanation   string      `json:"explanation"`
	Interventions int         `json:"interventions"`
	FinalScore    float64     `json:"final_score"`
	Trace         []core.Step `json:"trace"`
}

func (r *cellRun) outcome() outcome {
	return outcome{r.res.ExplanationString(), r.res.Interventions, r.res.FinalScore, r.res.Trace}
}

// detail is the outcome's canonical bytes, compared byte for byte.
func (o outcome) detail() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // plain data: marshalling cannot fail
	}
	return string(b)
}

// search runs GRD or GT on a candidate PVT set.
func search(ctx context.Context, e *core.Explainer, algo string, pvts []*core.PVT, fail *dataset.Dataset) (*core.Result, error) {
	if algo == "gt" {
		return e.ExplainGroupTestPVTsContext(ctx, pvts, fail)
	}
	return e.ExplainGreedyPVTsContext(ctx, pvts, fail)
}

// sink keeps rendered reports alive so rendering is never optimized away.
var sink int

// caseCell does what `dataprism -pass P -fail F -algo X -json` does, split
// into the calls a traced run times: read both CSVs, score pass and fail,
// discover discriminative profiles, build PVTs, search (make-minimal
// included) and render the report. With fleet set, every oracle call goes
// over a fresh remote.FleetSystem to the case study's workers; with
// storeDir set, the search reads and writes a scorestore there.
func (b *bench) caseCell(ctx context.Context, cs *caseStudy, algo string, fleet bool, storeDir string, verify bool) *cellRun {
	run := &cellRun{scenario: cs.name, algo: algo, cs: cs}
	var fail *dataset.Dataset
	calls0 := cs.meter.calls.Load()
	measure(run, func() { run.res, fail, run.err = b.caseSearch(ctx, cs, algo, fleet, storeDir, run) })
	run.calls = cs.meter.calls.Load() - calls0
	run.finish(ctx, verify, pipeline.AsContext(cs.sys), cs.tau, fail, cs.seed)
	return run
}

// measure runs a cell, recording its wall time and the bytes it allocated.
func measure(run *cellRun, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	f()
	run.secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	run.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

func (b *bench) caseSearch(ctx context.Context, cs *caseStudy, algo string, fleet bool, storeDir string, run *cellRun) (res *core.Result, fail *dataset.Dataset, err error) {
	rec := b.rec
	in := dataset.InferOptions{Kinds: cs.kinds}
	pass, err := b.ingest(cs.pass, in)
	if err != nil {
		return nil, nil, err
	}
	if fail, err = b.ingest(cs.fail, in); err != nil {
		return nil, nil, err
	}

	e := &core.Explainer{Tau: cs.tau, Options: &cs.opts, Seed: cs.seed, Workers: workers}
	score := func(d *dataset.Dataset) (float64, error) { return cs.meter.MalfunctionScore(ctx, d), nil }
	if fleet {
		cfg := remote.Config{
			Addrs:            cs.fleet.addrs,
			SystemName:       cs.sys.Name(),
			RetryMax:         3,
			RetryBaseDelay:   100 * time.Millisecond,
			BreakerThreshold: 5,
			BreakerCooldown:  5 * time.Second,
		}
		if rec.active() {
			cfg.Dial = rec.dialer()
		}
		f := timedFleet{remote.NewFleet(cfg), rec}
		defer f.Close()
		e.FallibleSystem = f
		score = func(d *dataset.Dataset) (float64, error) {
			r := f.TryMalfunctionScore(ctx, d)
			return r.Score, r.Err
		}
	} else {
		e.ContextSystem = cs.meter
	}

	var passScore, failScore float64
	rec.do("workload.baseline", func() {
		if passScore, err = score(pass); err == nil {
			failScore, err = score(fail)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("baseline score: %w", err)
	}

	if storeDir != "" {
		var st *scorestore.Store
		rec.do("scorestore.Open", func() { st, err = scorestore.Open(storeDir, cs.sys.Name(), scorestore.Options{}) })
		if err != nil {
			return nil, nil, err
		}
		rec.count("scorestore.loaded", float64(st.Stats().Loaded))
		e.Store = timedStore{st, rec}
		defer func() {
			var cerr error
			rec.do("scorestore.Close", func() { cerr = st.Close() })
			if err == nil && cerr != nil {
				err = cerr
			}
		}()
	}

	var profs []profile.Profile
	rec.do("profile.Discriminative", func() { profs = profile.Discriminative(pass, fail, cs.opts, eps) })
	rec.count("profile.candidates", float64(len(profs)))
	var pvts []*core.PVT
	rec.do("core.BuildPVTs", func() { pvts = core.BuildPVTs(profs) })

	calls0 := cs.meter.calls.Load()
	rec.do("core.Explain", func() { res, err = search(ctx, e, algo, pvts, fail) })
	run.searchCalls = cs.meter.calls.Load() - calls0
	if res == nil {
		return nil, nil, err
	}
	countEngine(rec, res)
	rec.do("report.Text", func() {
		sink += len(report.Summary{SystemName: cs.sys.Name(), Tau: cs.tau, PassScore: passScore, FailScore: failScore, Result: res}.Text())
	})
	return res, fail, err
}

// ingest reads one CSV input, recording the bytes it allocated when traced.
func (b *bench) ingest(path string, in dataset.InferOptions) (d *dataset.Dataset, err error) {
	traced := b.rec.active()
	var before, after runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	b.rec.do("dataset.ReadCSVFile", func() { d, err = dataset.ReadCSVFile(path, in) })
	if traced {
		runtime.ReadMemStats(&after)
		b.rec.count("dataset.ingest_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	}
	return d, err
}

// synthCell hands a Figure 8 scenario's PVTs straight to the search, as
// Figure 8 does: no CSV, no discovery, no baseline scores.
func (b *bench) synthCell(ctx context.Context, p synthPoint, sc *synth.Scenario, seed int64, algo string, verify bool) *cellRun {
	rec := b.rec
	m := &meter{sys: pipeline.AsContext(sc.System), rec: rec}
	run := &cellRun{scenario: p.name, algo: algo}
	e := &core.Explainer{ContextSystem: m, Tau: synthTau, Seed: seed, Workers: workers}
	measure(run, func() {
		rec.do("core.Explain", func() { run.res, run.err = search(ctx, e, algo, sc.PVTs, sc.Fail) })
		if run.res != nil {
			countEngine(rec, run.res)
			rec.do("report.Text", func() {
				sink += len(report.Summary{SystemName: sc.System.Name(), Tau: synthTau, Result: run.res}.Text())
			})
		}
	})
	run.calls = m.calls.Load()
	run.searchCalls = run.calls
	run.finish(ctx, verify, pipeline.AsContext(sc.System), synthTau, sc.Fail, seed)
	return run
}

// countEngine adds a search's engine counters to the rep's counters.
func countEngine(rec *recorder, res *core.Result) {
	st := res.Stats
	for name, v := range map[string]int{
		"core.trace_steps":     len(res.Trace),
		"engine.cache_hits":    st.CacheHits,
		"engine.cache_misses":  st.CacheMisses,
		"engine.batches":       st.Batches,
		"engine.store_hits":    st.StoreHits,
		"engine.failures":      st.Failures(),
		"engine.retries":       st.Retries,
		"remote.failovers":     st.Fleet.Failovers,
		"remote.worker_faults": st.Fleet.WorkerFaults,
	} {
		rec.count(name, float64(v))
	}
}

// storeDir names a resume cell's score-store directory for one rep.
func storeDir(inst *instance, rep int, cs *caseStudy, algo string) string {
	return filepath.Join(inst.dir, fmt.Sprintf("store-%d-%s-%s", rep, cs.name, algo))
}

// runRep runs every cell of a workload once, in a fixed order; verify is
// set on the first rep of a run. Outside its timer, each cell gets a
// reference-kernel sample, a collected heap and, for synth points, freshly
// generated inputs.
func (b *bench) runRep(ctx context.Context, inst *instance, rep int, verify bool) ([]*cellRun, error) {
	var runs []*cellRun
	cell := func(name string) error {
		if err := b.calibrate(inst); err != nil { // leaves a collected heap
			return err
		}
		b.rec.setCell(name)
		return nil
	}
	seed := instanceSeed("synth", b.seed)
	for _, p := range inst.points {
		for _, algo := range []string{"grd", "gt"} {
			sc := genSynth(p, seed)
			if err := cell(p.name + "/" + algo); err != nil {
				return nil, err
			}
			runs = append(runs, b.synthCell(ctx, p, sc, seed, algo, verify))
		}
	}
	for _, cs := range inst.cases {
		for _, algo := range []string{"grd", "gt"} {
			if inst.workload != "resume" {
				if err := cell(cs.name + "/" + algo); err != nil {
					return nil, err
				}
				runs = append(runs, b.caseCell(ctx, cs, algo, inst.workload == "fig7-fleet", "", verify))
				continue
			}
			dir := storeDir(inst, rep, cs, algo)
			if err := cell(cs.name + "/" + algo + "/cold"); err != nil {
				return nil, err
			}
			cold := b.caseCell(ctx, cs, algo, false, dir, verify)
			if err := cell(cs.name + "/" + algo + "/warm"); err != nil {
				return nil, err
			}
			cold.warm = b.caseCell(ctx, cs, algo, false, dir, false)
			os.RemoveAll(dir)
			runs = append(runs, cold)
		}
	}
	return runs, nil
}

// checkRep returns why each failed cell of a rep failed. Every rep must
// reproduce the first rep's outcomes. The first rep must also have verified
// (see finish); it is compared with the golden file at the default seed
// and, on fig7-fleet, with the same cell run locally.
func (b *bench) checkRep(ctx context.Context, runs []*cellRun, first map[string]string) map[string][]string {
	bad := make(map[string][]string)
	fail := func(r *cellRun, format string, args ...any) {
		bad[r.key()] = append(bad[r.key()], fmt.Sprintf(format, args...))
	}
	for _, r := range runs {
		if r.err != nil && !errors.Is(r.err, core.ErrNoExplanation) {
			fail(r, "error: %v", r.err)
			continue
		}
		if r.res == nil || !r.res.Found {
			fail(r, "no explanation found")
			continue
		}
		o := r.outcome()
		if w := r.warm; w != nil {
			switch {
			case w.err != nil:
				fail(r, "warm run: %v", w.err)
			case w.res.ExplanationString() != o.Explanation:
				fail(r, "warm explanation %s, cold %s", w.res.ExplanationString(), o.Explanation)
			case w.searchCalls != 0:
				fail(r, "warm search made %d oracle calls", w.searchCalls)
			case w.res.Stats.StoreHits != o.Interventions+1:
				// +1: the failing dataset's own score, which the search
				// takes through the engine before any intervention.
				fail(r, "warm store hits %d, want cold interventions %d + 1", w.res.Stats.StoreHits, o.Interventions)
			}
		}
		want, seen := first[r.key()]
		if seen {
			if got := o.detail(); got != want {
				fail(r, "outcome differs from the first rep's")
			}
			continue
		}
		first[r.key()] = o.detail()
		if !r.verified {
			fail(r, "explanation %s does not verify as a minimal explanation", o.Explanation)
		}
		if msg := b.checkGolden(r); msg != "" {
			fail(r, "%s", msg)
		}
		if r.cs != nil && r.cs.fleet != nil {
			local := b.caseCell(ctx, r.cs, r.algo, false, "", false)
			if local.res == nil || local.outcome().detail() != o.detail() {
				fail(r, "fleet outcome differs from the local run's")
			}
		}
	}
	return bad
}
