// Command dataprism explains the mismatch between a failing dataset and a
// data-driven system, given a passing dataset for contrast.
//
// The system under debugging is either one of the built-in case-study
// pipelines (-scenario) or an arbitrary external command (-system-cmd) that
// receives the candidate dataset as CSV on stdin and prints a malfunction
// score in [0,1] on stdout:
//
//	dataprism -pass pass.csv -fail fail.csv -tau 0.3 -system-cmd "python score.py"
//	dataprism -scenario sentiment -algo gt
//
// The output is the minimal explanation — the data profiles that causally
// explain the malfunction — along with the intervention trace and, with
// -out, the repaired dataset.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	dataprism "repro"
	"repro/internal/pipeline"
	"repro/internal/pipeline/remote"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/scorestore"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve-oracle":
			serveOracle(os.Args[2:])
			return
		case "profile":
			profileCmd(os.Args[2:])
			return
		case "diff":
			diffCmd(os.Args[2:])
			return
		case "watch":
			watchCmd(os.Args[2:])
			return
		}
	}
	var (
		passPath   = flag.String("pass", "", "CSV file of the passing dataset")
		failPath   = flag.String("fail", "", "CSV file of the failing dataset")
		systemCmd  = flag.String("system-cmd", "", "external system: command receiving CSV on stdin, printing a malfunction score")
		scenario   = flag.String("scenario", "", "built-in scenario instead of CSV inputs: sentiment, income, cardio, bias, ezgo")
		tau        = flag.Float64("tau", 0.3, "allowable malfunction threshold")
		algo       = flag.String("algo", "grd", "algorithm: grd (greedy) or gt (group testing)")
		seed       = flag.Int64("seed", 1, "random seed")
		rows       = flag.Int("rows", 1000, "rows per generated dataset for built-in scenarios")
		outPath    = flag.String("out", "", "write the repaired dataset to this CSV file")
		textCols   = flag.String("text-columns", "", "comma-separated columns to force to text on CSV import")
		verbose    = flag.Bool("v", false, "print the intervention trace")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON instead of text")
		mdOut      = flag.Bool("markdown", false, "emit the result as a Markdown report")
		workers    = flag.Int("workers", 0, "goroutines evaluating independent interventions (0 = GOMAXPROCS)")
		profiles   = flag.String("profiles", "", "comma-separated PVT classes to discover (exact set), or +name/-name adjustments to the defaults; see -list-profiles")
		sample     = flag.Int("sample", 0, "fit expensive profiles on a deterministic sample of at most this many rows, with error bounds (0 = exact)")
		sampleSeed = flag.Int64("sample-seed", 1, "seed of the deterministic profile-fitting sample draw")
		listProfs  = flag.Bool("list-profiles", false, "list the registered PVT profile classes and exit")
		baseline   = flag.String("baseline", "", "pinned baseline artifact (from `dataprism profile`): its profiles replace discovery on the passing dataset, and the report cites it as each violated profile's provenance")
		timeout    = flag.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the search to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")

		retries     = flag.Int("retries", 2, "retries per transient oracle failure, of -system-cmd and of each -remote-workers worker (0 = fail on first transient error)")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "base delay of the exponential retry backoff")
		breakerTrip = flag.Int("breaker-threshold", 5, "consecutive transient oracle failures that open the circuit breaker of -system-cmd, or of each -remote-workers worker (0 = no breaker)")
		breakerCool = flag.Duration("breaker-cooldown", 5*time.Second, "how long the open circuit breaker rejects evaluations before probing again")

		scoreCache     = flag.String("score-cache", "", "directory of the persistent score cache: scores keyed by dataset fingerprint and oracle name survive the process, so re-runs and killed-and-resumed searches skip every already-scored intervention")
		remoteWorkers  = flag.String("remote-workers", "", "comma-separated host:port endpoints of remote oracle workers (see the serve-oracle subcommand); evaluations fan across the fleet")
		hedgeAfter     = flag.Duration("hedge-after", 0, "speculatively duplicate an in-flight remote evaluation on another worker after this long (0 = no hedging)")
		remoteFallback = flag.Bool("remote-fallback", false, "evaluate locally when every remote worker failed an evaluation after its retries, or is unhealthy, instead of aborting the search")
	)
	flag.Parse()
	if *listProfs {
		listProfileClasses()
		return
	}
	startProfiles(*cpuProf, *memProf)
	defer stopProfiles()
	defer func() { reportOracleFailures() }()

	var (
		pass, fail *dataprism.Dataset
		sys        dataprism.FallibleSystem
		opts       dataprism.DiscoveryOptions
		threshold  = *tau
	)
	switch {
	case *scenario != "":
		var err error
		pass, fail, sys, opts, threshold, err = builtinScenario(*scenario, *rows, *seed)
		if err != nil {
			fatal(err)
		}
	case *passPath != "" && *failPath != "" && *systemCmd != "":
		inferOpts := dataprism.CSVInferOptions{}
		if *textCols != "" {
			inferOpts.TextColumns = strings.Split(*textCols, ",")
		}
		var err error
		if pass, err = dataprism.ReadCSVFile(*passPath, inferOpts); err != nil {
			fatal(err)
		}
		if fail, err = dataprism.ReadCSVFile(*failPath, inferOpts); err != nil {
			fatal(err)
		}
		ext := &pipeline.External{Command: strings.Fields(*systemCmd)}
		if *verbose {
			ext.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "dataprism: "+format+"\n", args...)
			}
		}
		// Fault-tolerant oracle chain: classify → retry transient failures →
		// trip the breaker when the command looks systemically down.
		sys = ext
		if *retries > 0 {
			sys = &dataprism.Retry{System: sys, Max: *retries + 1, BaseDelay: *retryBase}
		}
		if *breakerTrip > 0 {
			sys = &dataprism.Breaker{System: sys, FailureThreshold: *breakerTrip, Cooldown: *breakerCool}
		}
		reportOracleFailures = func() {
			tail := ext.RecentFailures(5)
			if len(tail) == 0 {
				return
			}
			fmt.Fprintf(os.Stderr, "dataprism: last %d oracle failures (newest first):\n", len(tail))
			for _, f := range tail {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: dataprism -scenario <name> | -pass <csv> -fail <csv> -system-cmd <cmd>")
		fmt.Fprintln(os.Stderr, "       dataprism profile | diff | watch | serve-oracle  (profile artifacts & drift; -h per subcommand)")
		flag.PrintDefaults()
		exit(2)
	}

	if *remoteWorkers != "" {
		// Every fleet worker sits behind a breaker, and a zero threshold
		// there means the breaker's default; "no breaker" is one that never
		// opens.
		trip := *breakerTrip
		if trip <= 0 {
			trip = math.MaxInt
		}
		cfg := remote.Config{
			Addrs:            splitTrim(*remoteWorkers),
			SystemName:       sys.Name(),
			HedgeAfter:       *hedgeAfter,
			RetryMax:         *retries + 1,
			RetryBaseDelay:   *retryBase,
			BreakerThreshold: trip,
			BreakerCooldown:  *breakerCool,
		}
		if *remoteFallback {
			cfg.Fallback = sys
		}
		fleet := remote.NewFleet(cfg)
		defer fleet.Close()
		sys = fleet
		activeFleet = fleet
		prev := reportOracleFailures
		reportOracleFailures = func() {
			prev()
			reportFleetDiagnostics(fleet)
		}
	}

	var store *scorestore.Store
	if *scoreCache != "" {
		var err error
		store, err = scorestore.Open(*scoreCache, sys.Name(), scorestore.Options{})
		if err != nil {
			fatal(err)
		}
		if st := store.Stats(); st.Discarded {
			fmt.Fprintln(os.Stderr, "dataprism: score cache was built under a different fingerprint algorithm; discarded and rebuilding")
		}
		closeScoreStore = func() {
			closeScoreStore = func() {}
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "dataprism: closing score cache:", err)
			}
		}
		defer func() { closeScoreStore() }()
	}

	if err := applyProfileSelector(&opts, *profiles); err != nil {
		fatal(err)
	}
	if *sample > 0 {
		opts.Sample = dataprism.SampleOptions{Cap: *sample, Seed: *sampleSeed}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The failing score is the search's own baseline (res.InitialScore):
	// measuring it here as well would cost a second oracle call.
	passScore := baselineScore(ctx, sys, pass)

	e := &dataprism.Explainer{FallibleSystem: sys, Tau: threshold, Options: &opts, Seed: *seed, Workers: *workers}
	if store != nil {
		e.Store = store
	}
	if *baseline != "" {
		bp, fp, err := loadBaselineArtifact(*baseline)
		if err != nil {
			fatal(err)
		}
		e.BaselineProfiles = bp
		baselinePath, baselineFingerprint = *baseline, fp
	}
	var (
		res *dataprism.Result
		err error
	)
	switch *algo {
	case "grd":
		res, err = e.ExplainGreedyPVTsContext(ctx, e.Candidates(pass, fail), fail)
	case "gt":
		res, err = e.ExplainGroupTestPVTsContext(ctx, e.Candidates(pass, fail), fail)
	default:
		fatal(fmt.Errorf("unknown algorithm %q (want grd or gt)", *algo))
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "dataprism: search aborted (%v) after %d interventions\n", err, res.Interventions)
		exit(1)
	}
	if errors.Is(err, dataprism.ErrNoExplanation) {
		if *jsonOut {
			emitJSON(sys.Name(), threshold, passScore, res, false)
			exit(1)
		}
		fmt.Printf("no explanation found after %d interventions (final score %.3f)\n",
			res.Interventions, res.FinalScore)
		exit(1)
	}
	if err != nil {
		fatal(err)
	}
	if *jsonOut || *mdOut {
		if *jsonOut {
			emitJSON(sys.Name(), threshold, passScore, res, true)
		} else {
			fmt.Print(report.Summary{SystemName: sys.Name(), Tau: threshold, PassScore: passScore, FailScore: res.InitialScore, Baseline: baselinePath, BaselineFingerprint: baselineFingerprint, Result: res}.Markdown())
		}
		if *outPath != "" && res.Transformed != nil {
			if err := res.Transformed.WriteCSVFile(*outPath); err != nil {
				fatal(err)
			}
		}
		return
	}

	summary := report.Summary{SystemName: sys.Name(), Tau: threshold, PassScore: passScore, FailScore: res.InitialScore, Baseline: baselinePath, BaselineFingerprint: baselineFingerprint, Result: res}
	if !*verbose {
		res.Trace = nil // keep the default text report compact
	}
	fmt.Print(summary.Text())

	if *outPath != "" && res.Transformed != nil {
		if err := res.Transformed.WriteCSVFile(*outPath); err != nil {
			fatal(err)
		}
		fmt.Printf("repaired dataset written to %s\n", *outPath)
	}
}

// builtinScenarios maps each -scenario name to its generator.
var builtinScenarios = map[string]func(rows int, seed int64) *workload.Scenario{
	"sentiment": workload.NewSentimentScenario,
	"income":    workload.NewIncomeScenario,
	"cardio":    workload.NewCardioScenario,
	"bias":      workload.NewBiasScenario,
	"ezgo":      workload.NewEZGoScenario,
}

// builtinScenario generates a case-study scenario; its system is adapted
// to the error-aware contract once, here.
func builtinScenario(name string, rows int, seed int64) (pass, fail *dataprism.Dataset, sys dataprism.FallibleSystem, opts dataprism.DiscoveryOptions, tau float64, err error) {
	gen, ok := builtinScenarios[name]
	if !ok {
		return nil, nil, nil, opts, 0, fmt.Errorf("unknown scenario %q", name)
	}
	s := gen(rows, seed)
	return s.Pass, s.Fail, dataprism.AsFallibleSystem(dataprism.AsContextSystem(s.System)), s.Options, s.Tau, nil
}

// listProfileClasses prints the PVT-class catalog for -list-profiles.
func listProfileClasses() {
	fmt.Println("registered PVT profile classes (* = discovered by default):")
	for _, c := range profile.Discoverers() {
		mark := "  "
		if c.DefaultOn {
			mark = "* "
		}
		fmt.Printf("  %s%-13s %s\n", mark, c.Name, c.Describe)
	}
	fmt.Println("\nselect with -profiles name,name (exact set) or -profiles +name,-name (adjust defaults)")
}

// applyProfileSelector folds the -profiles flag into the discovery options.
// Bare names select the exact class set; +name/-name tokens adjust whatever
// the scenario (or the defaults) enabled. The two styles don't mix.
func applyProfileSelector(opts *dataprism.DiscoveryOptions, spec string) error {
	if spec == "" {
		return nil
	}
	known := make(map[string]bool)
	for _, name := range dataprism.ClassNames() {
		known[name] = true
	}
	var exact, adjust []string
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok[0] == '+' || tok[0] == '-' {
			adjust = append(adjust, tok)
		} else {
			exact = append(exact, tok)
		}
	}
	if len(exact) > 0 && len(adjust) > 0 {
		return fmt.Errorf("-profiles mixes exact names with +/- adjustments: %q", spec)
	}
	if opts.Classes == nil {
		opts.Classes = make(map[string]bool)
	}
	check := func(name string) error {
		if !known[name] {
			return fmt.Errorf("unknown profile class %q (see -list-profiles)", name)
		}
		return nil
	}
	if len(exact) > 0 {
		for name := range known {
			opts.Classes[name] = false
		}
		for _, name := range exact {
			if err := check(name); err != nil {
				return err
			}
			opts.Classes[name] = true
		}
		return nil
	}
	for _, tok := range adjust {
		name := tok[1:]
		if err := check(name); err != nil {
			return err
		}
		opts.Classes[name] = tok[0] == '+'
	}
	return nil
}

// jsonResult is the machine-readable output schema of -json.
type jsonResult struct {
	System         string              `json:"system"`
	Baseline       string              `json:"baseline,omitempty"`
	BaselineFP     string              `json:"baseline_fingerprint,omitempty"`
	Tau            float64             `json:"tau"`
	PassScore      float64             `json:"pass_score"`
	FailScore      float64             `json:"fail_score"`
	Found          bool                `json:"found"`
	Discriminative int                 `json:"discriminative_pvts"`
	Interventions  int                 `json:"interventions"`
	CacheHits      int                 `json:"cache_hits"`
	ParallelBatch  int                 `json:"parallel_batches"`
	MeanOracleSecs float64             `json:"mean_oracle_seconds"`
	Retries        int                 `json:"retries"`
	TransientFails int                 `json:"transient_failures"`
	DetermFails    int                 `json:"deterministic_failures"`
	BreakerTrips   int                 `json:"breaker_trips"`
	StoreHits      int                 `json:"store_hits"`
	Fleet          *jsonFleet          `json:"fleet,omitempty"`
	FinalScore     float64             `json:"final_score"`
	RuntimeSecs    float64             `json:"runtime_seconds"`
	Explanation    []string            `json:"explanation"`
	ExplByClass    map[string][]string `json:"explanation_by_class,omitempty"`
	Trace          []jsonTraceStep     `json:"trace"`
}

// jsonFleet reports the remote oracle fleet's counters and per-worker
// diagnostics when -remote-workers is set.
type jsonFleet struct {
	Workers       int                 `json:"workers"`
	Healthy       int                 `json:"healthy"`
	Dispatched    int                 `json:"dispatched"`
	Hedges        int                 `json:"hedges"`
	Failovers     int                 `json:"failovers"`
	WorkerFaults  int                 `json:"worker_faults"`
	FallbackEvals int                 `json:"fallback_evals"`
	WorkerDiags   []remote.WorkerDiag `json:"worker_diagnostics,omitempty"`
}

type jsonTraceStep struct {
	PVTs      []string `json:"pvts"`
	Transform string   `json:"transform"`
	Score     float64  `json:"score"`
	Accepted  bool     `json:"accepted"`
}

func emitJSON(system string, tau, passScore float64, res *dataprism.Result, found bool) {
	out := jsonResult{
		System:         system,
		Baseline:       baselinePath,
		BaselineFP:     baselineFingerprint,
		Tau:            tau,
		PassScore:      passScore,
		FailScore:      res.InitialScore,
		Found:          found,
		Discriminative: res.Discriminative,
		Interventions:  res.Interventions,
		CacheHits:      res.Stats.CacheHits,
		ParallelBatch:  res.Stats.Batches,
		MeanOracleSecs: res.Stats.Latency.Mean().Seconds(),
		Retries:        res.Stats.Retries,
		TransientFails: res.Stats.TransientFailures,
		DetermFails:    res.Stats.DeterministicFailures,
		BreakerTrips:   res.Stats.BreakerTrips,
		StoreHits:      res.Stats.StoreHits,
		FinalScore:     res.FinalScore,
		RuntimeSecs:    res.Runtime.Seconds(),
	}
	if fs := res.Stats.Fleet; fs.Workers > 0 {
		out.Fleet = &jsonFleet{
			Workers:       fs.Workers,
			Healthy:       fs.Healthy,
			Dispatched:    fs.Dispatched,
			Hedges:        fs.Hedges,
			Failovers:     fs.Failovers,
			WorkerFaults:  fs.WorkerFaults,
			FallbackEvals: fs.FallbackEvals,
		}
		if activeFleet != nil {
			out.Fleet.WorkerDiags = activeFleet.WorkerDiagnostics()
		}
	}
	for _, p := range res.Explanation {
		out.Explanation = append(out.Explanation, p.String())
		if out.ExplByClass == nil {
			out.ExplByClass = make(map[string][]string)
		}
		c := p.Profile.Type()
		out.ExplByClass[c] = append(out.ExplByClass[c], p.String())
	}
	for _, s := range res.Trace {
		out.Trace = append(out.Trace, jsonTraceStep{PVTs: res.Names(s.PVTs), Transform: s.Transform, Score: s.Score, Accepted: s.Accepted})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dataprism:", err)
	exit(1)
}

// stopProfiles flushes any active pprof outputs; exit routes every
// termination path through it so profiles survive early exits.
var stopProfiles = func() {}

// reportOracleFailures prints the tail of the external oracle's failure ring
// to stderr; exit routes every termination path through it so the diagnostic
// survives early exits.
var reportOracleFailures = func() {}

// closeScoreStore flushes and closes the persistent score cache; exit routes
// every termination path through it so buffered scores survive early exits.
var closeScoreStore = func() {}

// activeFleet is the remote worker fleet of this run, when -remote-workers
// is set; emitJSON folds its per-worker diagnostics into the report.
var activeFleet *remote.FleetSystem

// baselinePath/baselineFingerprint record the -baseline artifact of this
// run so every output format cites the provenance of violated profiles.
var baselinePath, baselineFingerprint string

func exit(code int) {
	reportOracleFailures()
	closeScoreStore()
	stopProfiles()
	os.Exit(code)
}

// splitTrim splits a comma-separated flag value, dropping empty entries.
func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// reportFleetDiagnostics prints per-worker health, breaker trips, and recent
// failure tails to stderr at exit, mirroring the external oracle's ring.
func reportFleetDiagnostics(fleet *remote.FleetSystem) {
	diags := fleet.WorkerDiagnostics()
	interesting := false
	for _, d := range diags {
		if !d.Healthy || d.BreakerTrips > 0 || len(d.RecentFailures) > 0 {
			interesting = true
			break
		}
	}
	if !interesting {
		return
	}
	fmt.Fprintf(os.Stderr, "dataprism: remote fleet diagnostics (%d workers):\n", len(diags))
	for _, d := range diags {
		state := "healthy"
		if !d.Healthy {
			state = "unhealthy"
		}
		fmt.Fprintf(os.Stderr, "  %s: %s, %d breaker trips\n", d.Addr, state, d.BreakerTrips)
		for _, f := range d.RecentFailures {
			fmt.Fprintf(os.Stderr, "    %s\n", f)
		}
	}
}

// serveOracle runs the `dataprism serve-oracle` subcommand: a worker process
// that serves a scoring oracle over TCP for -remote-workers clients.
func serveOracle(args []string) {
	fs := flag.NewFlagSet("serve-oracle", flag.ExitOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:9412", "host:port to serve the oracle on")
		systemCmd = fs.String("system-cmd", "", "external system: command receiving CSV on stdin, printing a malfunction score")
		scenario  = fs.String("scenario", "", "serve a built-in scenario's system: sentiment, income, cardio, bias, ezgo")
		rows      = fs.Int("rows", 1000, "rows per generated dataset for built-in scenarios")
		seed      = fs.Int64("seed", 1, "random seed of the built-in scenario")
		verbose   = fs.Bool("v", false, "log requests that do not decode, tables that do not decode or match their fingerprint, replies that cannot be sent, and scorer panics")
	)
	fs.Parse(args)

	var sys dataprism.FallibleSystem
	switch {
	case *scenario != "":
		var err error
		_, _, sys, _, _, err = builtinScenario(*scenario, *rows, *seed)
		if err != nil {
			fatal(err)
		}
	case *systemCmd != "":
		sys = &pipeline.External{Command: strings.Fields(*systemCmd)}
	default:
		fmt.Fprintln(os.Stderr, "usage: dataprism serve-oracle -scenario <name> | -system-cmd <cmd> [-listen host:port]")
		fs.PrintDefaults()
		os.Exit(2)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &remote.Worker{System: sys}
	if *verbose {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dataprism: serve-oracle: "+format+"\n", args...)
		}
	}
	fmt.Fprintf(os.Stderr, "dataprism: serving oracle %q on %s\n", sys.Name(), ln.Addr())
	if err := w.Serve(ctx, ln); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
}

// baselineScore measures the passing dataset's malfunction, which the
// search never scores. It warns (instead of silently reporting a
// malfunction) when the measurement itself failed.
func baselineScore(ctx context.Context, sys dataprism.FallibleSystem, d *dataprism.Dataset) float64 {
	r := sys.TryMalfunctionScore(ctx, d)
	if r.Err != nil {
		fmt.Fprintf(os.Stderr, "dataprism: baseline measurement failed (reporting score 1): %v\n", r.Err)
		return 1
	}
	return r.Score
}

// startProfiles arms the -cpuprofile / -memprofile outputs. The CPU profile
// runs from here until exit; the heap profile is a snapshot taken at exit.
func startProfiles(cpuPath, memPath string) {
	var stops []func()
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dataprism:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dataprism:", err)
			os.Exit(1)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if memPath != "" {
		stops = append(stops, func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dataprism:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the snapshot reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dataprism:", err)
			}
		})
	}
	stopProfiles = func() {
		for _, stop := range stops {
			stop()
		}
		stopProfiles = func() {}
	}
}
