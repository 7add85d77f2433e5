package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/pipeline/remote"
	"repro/internal/profile"
	"repro/internal/synth"
	"repro/internal/workload"
)

// workloadNames lists the workloads in their default run order.
var workloadNames = []string{"fig7-local", "fig7-fleet", "synth-scale", "resume"}

// workers is the engine pool width and the fleet size of every cell.
const workers = 2

// synthTau is the malfunction threshold of the Figure 8 sweeps.
const synthTau = 0.05

// synthPoint is one Figure 8 scale point.
type synthPoint struct {
	name        string
	pvts, attrs int
}

// sizes fixes the input sizes of one benchmark configuration.
type sizes struct {
	name                      string // golden-file key: "full" or "quick"
	sentiment, income, cardio int    // case-study rows
	points                    []synthPoint
}

var (
	fullSizes = sizes{name: "full", sentiment: 10000, income: 3000, cardio: 10000, points: []synthPoint{
		{"fig8b", 300000, 300000}, {"fig8a", 6400, 800}}}
	// Income stays at 3k rows: it is oracle-bound and already small, and at
	// 2k rows its searches are erratic (up to 100 interventions, some
	// explanations not minimal), which would need a pool of its own.
	quickSizes = sizes{name: "quick", sentiment: 2000, income: 3000, cardio: 2000, points: []synthPoint{
		{"fig8b", 10000, 10000}, {"fig8a", 400, 50}}}
)

// instancePools lists, per case study and for the synth points, the
// generator seeds a workload seed chooses from (seed mod pool size). The
// raw generators are not a fair input distribution for a timing benchmark:
// across generator seeds 1–24, Income's GRD needs 2 to 65 interventions and
// its GT finds no explanation for three of them (assumption A3 fails). A
// pool member is a generator seed at which every cell, at full and quick
// size, finds an explanation that verifies as minimal, with the common
// intervention counts given beside each pool at full size, and whose cells
// cost within 3% (Income, synth), 4% (Sentiment) or 5% (Cardio) of the
// candidates' median time. So every workload seed does the same work on
// different data. README.md describes the scan that chose them.
var instancePools = map[string][]int64{
	"sentiment": {2, 5, 6, 13, 14, 22, 26, 27, 34, 39, 40, 43}, // GRD 1, GT 2
	"income":    {4, 16, 18, 20, 28, 32, 34, 35, 44, 51, 57},   // GRD 2, GT 12
	"cardio":    {4, 10, 17, 22, 25, 29, 32, 36, 42, 58},       // GRD 6, GT 6
	"synth":     {0, 2, 7, 9, 14, 18, 20, 23, 24, 26, 29, 30},  // 8b GRD 1, GT 36; 8a GRD 1, GT 26
}

// instanceSeed maps a workload seed to a case study's generator seed.
func instanceSeed(scenario string, seed int64) int64 {
	pool := instancePools[scenario]
	if len(pool) == 0 {
		return seed
	}
	i := seed % int64(len(pool))
	if i < 0 {
		i += int64(len(pool))
	}
	return pool[i]
}

// caseStudy is one generated Figure 7 scenario, written to CSV.
type caseStudy struct {
	name       string
	seed       int64 // generator and explainer seed
	sys        pipeline.System
	meter      *meter
	tau        float64
	opts       profile.Options
	pass, fail string // CSV paths
	kinds      map[string]dataset.Kind
	fleet      *fleetWorkers // set when the oracle is served over the fleet
}

// newCaseStudy generates a scenario, pretrains its model, writes both
// datasets to CSV under dir and checks they read back unchanged.
func newCaseStudy(name string, rows int, seed int64, dir string, rec *recorder) (*caseStudy, error) {
	var pass, fail *dataset.Dataset
	cs := &caseStudy{name: name, seed: seed}
	switch name {
	case "sentiment":
		s := workload.NewSentimentScenario(rows, seed)
		pass, fail, cs.sys, cs.tau, cs.opts = s.Pass, s.Fail, s.System, s.Tau, s.Options
	case "income":
		s := workload.NewIncomeScenario(rows, seed)
		pass, fail, cs.sys, cs.tau, cs.opts = s.Pass, s.Fail, s.System, s.Tau, s.Options
	case "cardio":
		s := workload.NewCardioScenario(rows, seed)
		pass, fail, cs.sys, cs.tau, cs.opts = s.Pass, s.Fail, s.System, s.Tau, s.Options
	default:
		return nil, fmt.Errorf("unknown case study %q", name)
	}
	cs.opts.Workers = workers
	cs.meter = &meter{sys: pipeline.AsContext(cs.sys), rec: rec}
	cs.kinds = make(map[string]dataset.Kind)
	for _, c := range pass.Columns() {
		cs.kinds[c.Name] = c.Kind
	}
	cs.pass = filepath.Join(dir, name+"-pass.csv")
	cs.fail = filepath.Join(dir, name+"-fail.csv")
	for _, f := range []struct {
		path string
		d    *dataset.Dataset
	}{{cs.pass, pass}, {cs.fail, fail}} {
		if err := f.d.WriteCSVFile(f.path); err != nil {
			return nil, err
		}
		back, err := dataset.ReadCSVFile(f.path, dataset.InferOptions{Kinds: cs.kinds})
		if err != nil {
			return nil, err
		}
		if !back.Equal(f.d) {
			return nil, fmt.Errorf("%s: CSV round trip changed the dataset", f.path)
		}
	}
	return cs, nil
}

// fleetWorkers serves one case study's oracle from loopback listeners the
// bench owns, as `dataprism serve-oracle` would.
type fleetWorkers struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startWorkers(sys pipeline.ContextSystem, n int) (*fleetWorkers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	fw := &fleetWorkers{cancel: cancel}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fw.stop()
			return nil, err
		}
		fw.addrs = append(fw.addrs, ln.Addr().String())
		w := &remote.Worker{System: pipeline.AsFallible(sys)}
		fw.wg.Add(1)
		go func() {
			defer fw.wg.Done()
			_ = w.Serve(ctx, ln) // returns ctx.Err() once stop cancels it
		}()
	}
	return fw, nil
}

// stop closes the listeners and waits for every worker to return.
func (fw *fleetWorkers) stop() {
	fw.cancel()
	fw.wg.Wait()
}

// instance is one set-up workload: its generated inputs and servers.
type instance struct {
	workload string
	dir      string
	cases    []*caseStudy
	points   []synthPoint
}

// setup generates a workload's inputs under a fresh directory in workdir:
// scenarios, pretrained models, CSV files and, for fig7-fleet, the fleet
// workers. Synth inputs are generated here once and again before each rep.
func setup(name string, sz sizes, seed int64, workdir string, rec *recorder) (*instance, error) {
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	inst := &instance{workload: name, dir: dir}
	var studies []string
	switch name {
	case "fig7-local", "fig7-fleet":
		studies = []string{"sentiment", "income", "cardio"}
	case "resume":
		studies = []string{"income", "cardio"}
	case "synth-scale":
		inst.points = sz.points
		for _, p := range sz.points {
			genSynth(p, instanceSeed("synth", seed))
		}
		return inst, nil
	default:
		inst.close()
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	rows := map[string]int{"sentiment": sz.sentiment, "income": sz.income, "cardio": sz.cardio}
	for _, s := range studies {
		cs, err := newCaseStudy(s, rows[s], instanceSeed(s, seed), dir, rec)
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.cases = append(inst.cases, cs)
		if name == "fig7-fleet" {
			if cs.fleet, err = startWorkers(cs.meter, workers); err != nil {
				inst.close()
				return nil, err
			}
		}
	}
	return inst, nil
}

// serving counts the goroutines the instance's fleet workers accept on.
func (inst *instance) serving() int {
	n := 0
	for _, cs := range inst.cases {
		if cs.fleet != nil {
			n += len(cs.fleet.addrs)
		}
	}
	return n
}

// close stops the instance's workers and deletes its files.
func (inst *instance) close() {
	for _, cs := range inst.cases {
		if cs.fleet != nil {
			cs.fleet.stop()
		}
	}
	os.RemoveAll(inst.dir)
}

// genSynth builds a Figure 8 scenario as experiments.Figure8* does.
func genSynth(p synthPoint, seed int64) *synth.Scenario {
	return synth.New(synth.Options{NumPVTs: p.pvts, NumAttrs: p.attrs, Conjunction: 1, Seed: seed, CauseTopBenefit: true})
}
