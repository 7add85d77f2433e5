// Command prism-bench times whole DataPrism debugging runs on the Figure 7
// case studies and Figure 8 scale points, checks every explanation, and
// with -trace 1 reports where the time went, layer by layer.
//
//	prism-bench -workload fig7-local -seed 4 -seconds 15
//	prism-bench -workload all -quick
//	prism-bench -workload resume -trace 1 -trace-out spans.json
//	prism-bench compare A.json B.json
//
// Each run prints a table of every metric (median, quartiles, min, max,
// sample count) and, as its last line, one JSON object with the run's
// correctness, cell counts and metric medians. See README.md.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// defaultSeed is the workload seed the golden file is recorded at.
const defaultSeed = 4

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of DataPrism sees, from untraced reps.
// The two times are scaled to nominal machine speed (see calibrate).
var endToEnd = []metricDef{
	{"explain_s", "s"}, {"setup_s", "s"}, {"interventions", "count"},
	{"oracle_calls", "count"}, {"alloc_mb", "MB"},
}

// contextMetrics are printed and recorded beside the end-to-end metrics
// but gate nothing: the raw times behind the scaled ones, the reference
// kernel's times, and the workload's peak RSS (see README.md for why it
// gates nothing).
var contextMetrics = []metricDef{
	{"explain_raw_s", "s"}, {"setup_raw_s", "s"}, {"reference_s", "s"}, {"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, from traced reps.
var perLayer = []metricDef{
	{"dataset.ingest_s", "s"}, {"dataset.ingest_mb", "MB"},
	{"profile.discriminative_s", "s"}, {"profile.candidates", "count"},
	{"core.search_s", "s"}, {"core.search_self_s", "s"}, {"core.trace_steps", "count"},
	{"engine.cache_hits", "count"}, {"engine.cache_hit_ratio", "fraction"}, {"engine.batches", "count"},
	{"engine.store_hits", "count"}, {"engine.failures", "count"}, {"engine.retries", "count"},
	{"engine.oracle_concurrency", "ratio"},
	{"workload.score_calls", "count"}, {"workload.score_busy_s", "s"}, {"workload.baseline_s", "s"},
	{"remote.eval_calls", "count"}, {"remote.eval_busy_s", "s"}, {"remote.eval_p50_ms", "ms"},
	{"remote.eval_p90_ms", "ms"}, {"remote.wire_s", "s"}, {"remote.wire_share", "fraction"},
	{"remote.sent_mb", "MB"}, {"remote.recv_mb", "MB"}, {"remote.failovers", "count"},
	{"remote.worker_faults", "count"},
	{"scorestore.open_s", "s"}, {"scorestore.loaded", "count"}, {"scorestore.load_calls", "count"},
	{"scorestore.load_s", "s"}, {"scorestore.save_calls", "count"}, {"scorestore.save_s", "s"},
	{"report.render_s", "s"}, {"trace.overhead_frac", "fraction"}, {"rerun_s", "s"},
}

type config struct {
	workloads    []string
	seed         int64
	seconds      float64
	reps         int
	trace        bool
	traceOut     string
	out          string
	quick        bool
	setups       int     // fewest set-ups per workload run
	setupSeconds float64 // and set up again until they took this long
	workdir      string
	updateGolden string
}

// bench is the state of one prism-bench invocation.
type bench struct {
	cfg     config
	sz      sizes
	seed    int64
	rec     *recorder
	prov    provenance
	golden  map[string]goldenEntry
	updates map[string]goldenEntry // set by -update-golden
	log     io.Writer              // diagnostics
	refS    []float64              // reference kernel times of the current run
	idle    int                    // goroutines running before the current run's set-up
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "prism-bench:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "prism-bench:", err)
		os.Exit(2)
	}
	if _, err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "prism-bench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("prism-bench", flag.ContinueOnError)
	var (
		cfg      config
		names    = fs.String("workload", "all", "comma-separated workloads, or all: "+strings.Join(workloadNames, ", "))
		traceOpt = fs.Int("trace", 0, "1 = traced run: alternate traced and untraced reps and report per-layer metrics")
	)
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the input generators are derived from it alone")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "instead of -reps: run timed reps until this many seconds have passed (at least 2)")
	fs.IntVar(&cfg.reps, "reps", 5, "number of timed reps")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write the spans of a traced run to this JSON file")
	fs.StringVar(&cfg.out, "out", "", "append one JSON line per workload run (provenance and metric summaries) to this file")
	fs.BoolVar(&cfg.quick, "quick", false, "shrink every size, run one rep and no warm-up (for tests)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for generated CSV files and score stores")
	fs.StringVar(&cfg.updateGolden, "update-golden", "", "write this run's first-rep outcomes into this golden file (merging)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traceOpt != 0 && *traceOpt != 1 {
		return cfg, fmt.Errorf("-trace wants 0 or 1, got %d", *traceOpt)
	}
	cfg.trace = *traceOpt == 1
	if *names == "all" {
		cfg.workloads = workloadNames
	} else {
		cfg.workloads = strings.Split(*names, ",")
	}
	for _, w := range cfg.workloads {
		if !slices.Contains(workloadNames, w) {
			return cfg, fmt.Errorf("unknown workload %q (want one of %v)", w, workloadNames)
		}
	}
	// setup_s is the median of the set-ups; the last one is used. Short
	// set-ups (synth-scale's take 0.2 s) need more samples to repeat.
	cfg.setups, cfg.setupSeconds = 3, 2
	if cfg.seconds > 0 {
		cfg.reps = 2
	}
	if cfg.quick {
		cfg.reps, cfg.seconds, cfg.setups, cfg.setupSeconds = 1, 0, 1, 0
	}
	if cfg.trace {
		cfg.reps = max(cfg.reps, 2) // at least one traced and one untraced rep
	}
	if cfg.reps < 1 {
		return cfg, fmt.Errorf("-reps must be at least 1")
	}
	return cfg, nil
}

// runResult is one workload run's record: what -out appends and compare
// reads.
type runResult struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Trace      bool               `json:"trace"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]summary `json:"metrics"`
	spans      []span
}

// run executes every configured workload, printing each one's tables and
// result line to stdout.
func run(cfg config, stdout, stderr io.Writer) ([]*runResult, error) {
	b := &bench{cfg: cfg, seed: cfg.seed, log: stderr, sz: fullSizes}
	if cfg.quick {
		b.sz = quickSizes
	}
	b.prov = newProvenance(cfg, b.sz.name)
	if cfg.trace {
		b.rec = newRecorder()
	}
	if err := json.Unmarshal(goldenJSON, &b.golden); err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	if cfg.updateGolden != "" {
		b.updates = make(map[string]goldenEntry)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	var results []*runResult
	for _, w := range cfg.workloads {
		res, err := b.runWorkload(context.Background(), w)
		if err != nil {
			return results, fmt.Errorf("%s: %w", w, err)
		}
		results = append(results, res)
		if cfg.trace {
			printBreakdown(stdout, res)
		}
		res.print(stdout)
		if cfg.out != "" {
			if err := appendJSONLine(cfg.out, res); err != nil {
				return results, err
			}
		}
	}
	if cfg.traceOut != "" {
		if err := writeJSON(cfg.traceOut, struct {
			Provenance provenance `json:"provenance"`
			Spans      []span     `json:"spans"`
		}{b.prov, b.rec.snapshot()}); err != nil {
			return results, err
		}
	}
	if b.updates != nil {
		if err := updateGolden(cfg.updateGolden, b.updates); err != nil {
			return results, err
		}
	}
	return results, nil
}

// repSample is one timed rep.
type repSample struct {
	rep    int
	traced bool
	runs   []*cellRun
	speed  float64 // nominalRefS over the geometric mean of the rep's kernel times
}

// runWorkload sets a workload up several times, runs one untimed warm-up
// rep, then -reps timed reps or, with -seconds, timed reps until that time
// has passed.
func (b *bench) runWorkload(ctx context.Context, name string) (*runResult, error) {
	var (
		setupS []float64
		inst   *instance
		err    error
	)
	b.refS, b.idle = nil, runtime.NumGoroutine()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	for total := 0.0; len(setupS) < b.cfg.setups || total < b.cfg.setupSeconds; {
		if inst != nil {
			inst.close()
		}
		if err := b.calibrate(nil); err != nil {
			return nil, err
		}
		start := time.Now()
		if inst, err = setup(name, b.sz, b.seed, b.cfg.workdir, b.rec); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		total += setupS[len(setupS)-1]
	}
	defer inst.close()

	res := &runResult{Provenance: b.prov, Workload: name, Trace: b.cfg.trace}
	first := make(map[string]string)
	check := func(runs []*cellRun) {
		b.rec.startRep(name, -1, false) // checks are never traced
		bad := b.checkRep(ctx, runs, first)
		res.Attempted += len(runs)
		res.Failed += len(bad)
		keys := make([]string, 0, len(bad))
		for k := range bad {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b.log, "prism-bench: %s %s: FAILED: %s\n", name, k, strings.Join(bad[k], "; "))
		}
	}
	if !b.cfg.quick {
		b.rec.startRep(name, 0, false)
		runs, err := b.runRep(ctx, inst, 0, true)
		if err != nil {
			return nil, err
		}
		check(runs)
	}
	var reps []repSample
	start := time.Now()
	for i := 1; len(reps) < b.cfg.reps || time.Since(start).Seconds() < b.cfg.seconds; i++ {
		traced := b.cfg.trace && len(reps)%2 == 0
		b.rec.startRep(name, i, traced)
		ref0 := len(b.refS)
		runs, err := b.runRep(ctx, inst, i, len(first) == 0)
		if err != nil {
			return nil, err
		}
		reps = append(reps, repSample{rep: i, traced: traced, runs: runs, speed: nominalRefS / geomean(b.refS[ref0:])})
		check(runs)
	}
	peakMB, err := peakRSS()
	if err != nil {
		return nil, err
	}

	res.Metrics = make(map[string]summary)
	e2e := endToEndSamples(reps)
	// Set-ups are scaled by the whole run's kernel times: the three kernel
	// times before them can all fall in one burst of host noise.
	e2e["setup_raw_s"], e2e["setup_s"] = setupS, scale(setupS, nominalRefS/median(b.refS))
	e2e["reference_s"] = b.refS
	e2e["peak_rss_mb"] = []float64{peakMB}
	for _, m := range append(append([]metricDef(nil), endToEnd...), contextMetrics...) {
		res.Metrics[m.name] = summarize(m.unit, e2e[m.name])
	}
	if b.cfg.trace {
		res.spans = b.rec.snapshot()
		for name, xs := range layerSamples(name, reps, res.spans, b.rec) {
			res.Metrics[name] = summarize(unitOf(name), xs)
		}
	}
	return res, nil
}

// endToEndSamples returns the per-rep end-to-end samples of the untraced
// reps. A resume cell's cold and warm runs both count; its warm run alone
// is also rerun_s. explain_s is each rep's time scaled by its speed: the
// host's speed drifts within a run, and one rep (3–4 s) follows it more
// closely than the run's kernel times do. A rep's time adds up every
// slowdown during it, so its speed averages the kernel times rather than
// taking their median, which ignores bursts of host noise; the geometric
// mean keeps one stray kernel time from counting for more.
func endToEndSamples(reps []repSample) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range reps {
		if r.traced {
			continue
		}
		var explain, rerun, interventions, calls, alloc float64
		for _, c := range r.runs {
			for _, x := range []*cellRun{c, c.warm} {
				if x == nil {
					continue
				}
				explain += x.secs
				calls += float64(x.calls)
				alloc += x.allocMB
				if x.res != nil {
					interventions += float64(x.res.Interventions)
				}
			}
			if c.warm != nil {
				rerun += c.warm.secs
			}
		}
		out["explain_raw_s"] = append(out["explain_raw_s"], explain)
		out["explain_s"] = append(out["explain_s"], explain*r.speed)
		out["rerun_s"] = append(out["rerun_s"], rerun)
		out["interventions"] = append(out["interventions"], interventions)
		out["oracle_calls"] = append(out["oracle_calls"], calls)
		out["alloc_mb"] = append(out["alloc_mb"], alloc)
	}
	return out
}

// nominalRefS is the reference kernel's time at nominal machine speed:
// about its median on the 2-vCPU Xeon the benchmark was written on.
const nominalRefS = 0.05

// kernelEnv, set in a child's environment, makes this binary run the
// reference kernel once, print its time in seconds and exit.
const kernelEnv = "PRISM_BENCH_KERNEL"

func init() {
	if os.Getenv(kernelEnv) == "1" {
		fmt.Println(referenceKernel())
		os.Exit(0)
	}
}

// calibrate times the reference kernel in a child process and records the
// time. It runs before every set-up and every cell. On shared 2-vCPU
// machines the host slows every run by 20–30% for tens of seconds at a
// time, and CPU time inflates with wall time, so neither can be compared
// across runs. The kernel slows with them, and the times are scaled by it
// (see endToEndSamples). In its own process, the kernel shares no heap, GC
// pacing or goroutines with the code under test. Only the CPU is shared,
// so first every goroutine the code under test started must have ended: a
// change that leaves work running fails the run instead of slowing the
// kernel. inst is the set-up instance whose fleet workers are running, if
// any.
func (b *bench) calibrate(inst *instance) error {
	own := b.idle
	if inst != nil {
		own += inst.serving()
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > own; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running before calibration, the bench's own are %d: the code under test left work running",
				runtime.NumGoroutine(), own)
		}
	}
	runtime.GC()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), kernelEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return fmt.Errorf("reference kernel: %w", err)
	}
	b.refS = append(b.refS, s)
	return nil
}

// referenceKernel times a fixed kernel that uses only the standard library
// (float generation, sort, string-keyed map updates), run as two concurrent
// copies: a single copy misses contention between the two vCPUs. A
// pointer-chasing kernel over 8 MB of heap nodes, tried as a better match
// for synth-scale, followed the cells' times less closely than this one.
func referenceKernel() float64 {
	start := time.Now()
	var (
		wg   sync.WaitGroup
		keys [workers]int
	)
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			xs := make([]float64, 1<<18)
			for i := range xs {
				xs[i] = rng.Float64()
			}
			sort.Float64s(xs)
			m := make(map[string]int)
			for i := 0; i < 1<<16; i++ {
				m[strconv.Itoa(rng.Intn(1<<15))]++
			}
			keys[g] = len(m)
		}()
	}
	wg.Wait()
	sink += keys[0]
	return time.Since(start).Seconds()
}

// resetPeakRSS returns the heap's free pages to the system and resets the
// process's peak resident set size, so that peakRSS reads the peak of the
// workload about to run, not of the workloads run before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the peak resident set size since resetPeakRSS, in MB.
func peakRSS() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// print writes the metric table and, last, the one-line JSON result: the
// end-to-end medians of an untraced run, the per-layer medians of a traced
// one.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  quick %v  trace %v  cells attempted %d failed %d (error_rate %.3g)\n",
		r.Workload, r.Provenance.Seed, r.Provenance.Quick, r.Trace, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	fmt.Fprintf(w, "%-28s %-8s %12s %12s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
	list := append(append([]metricDef(nil), endToEnd...), contextMetrics...)
	if r.Trace {
		list = append(list, perLayer...)
	}
	for _, m := range list {
		s := r.Metrics[m.name]
		fmt.Fprintf(w, "%-28s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %4d\n", m.name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]value)}
	list = endToEnd
	if r.Trace {
		list = perLayer
	}
	for _, m := range list {
		line.Metrics[m.name] = value{r.Metrics[m.name].Median, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain data: marshalling cannot fail
	}
	fmt.Fprintln(w, string(b))
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// goldenEntry is a cell's committed outcome at the default seed.
type goldenEntry struct {
	Explanation   string `json:"explanation"`
	Interventions int    `json:"interventions"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

// checkGolden compares a first-rep outcome with the golden file, keyed by
// size, seed, scenario and algorithm: a case-study cell must give the same
// outcome on every workload that runs it. Only the default seed is
// recorded; other seeds rely on verification and the fleet/local identity.
// With -update-golden the outcome is recorded instead.
func (b *bench) checkGolden(r *cellRun) string {
	key := fmt.Sprintf("%s/%d/%s", b.sz.name, b.seed, r.key())
	got := goldenEntry{r.res.ExplanationString(), r.res.Interventions}
	if b.updates != nil {
		b.updates[key] = got
		return ""
	}
	want, ok := b.golden[key]
	switch {
	case ok && want != got:
		return fmt.Sprintf("golden %s: got %+v, want %+v", key, got, want)
	case !ok && b.seed == defaultSeed:
		return "no golden entry " + key + " (regenerate with -update-golden)"
	}
	return ""
}

// updateGolden merges updates into the golden file at path.
func updateGolden(path string, updates map[string]goldenEntry) error {
	merged := make(map[string]goldenEntry)
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for k, v := range updates {
		merged[k] = v
	}
	return writeJSON(path, merged) // encoding/json sorts map keys
}

// provenance identifies the code, machine and settings behind a result.
type provenance struct {
	GitSHA     string  `json:"git_sha"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Sizes      string  `json:"sizes"`
}

func newProvenance(cfg config, sizes string) provenance {
	p := provenance{
		GitSHA: "unknown", CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: cfg.seed, Reps: cfg.reps, Seconds: cfg.seconds, Quick: cfg.quick,
		Sizes: sizes,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				p.GitSHA = s.Value
			}
		}
	}
	if wd, err := os.Getwd(); err == nil && p.GitSHA == "unknown" {
		// The ceiling keeps git from reporting a repository above this one.
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if out, err := cmd.Output(); err == nil {
			p.GitSHA = strings.TrimSpace(string(out))
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}
