// The profile-artifact subcommands: `profile` pins a dataset's discovered
// profiles as a canonical versioned artifact, `diff` compares two artifacts
// structurally, and `watch` re-profiles a feed against a pinned baseline
// and streams drift events — the CI gate that flags data drift before the
// system's malfunction score degrades.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	dataprism "repro"
	"repro/internal/artifact"
	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// profileCmd implements `dataprism profile`: discover and emit an artifact.
func profileCmd(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var (
		dataPath   = fs.String("data", "", "CSV file of the dataset to profile")
		outPath    = fs.String("o", "", "write the artifact to this file instead of stdout")
		profiles   = fs.String("profiles", "", "comma-separated PVT classes (exact set), or +name/-name adjustments to the defaults; see -list-profiles")
		sample     = fs.Int("sample", 0, "fit expensive profiles on a deterministic sample of at most this many rows (0 = exact)")
		sampleSeed = fs.Int64("sample-seed", 1, "seed of the deterministic profile-fitting sample draw")
		textCols   = fs.String("text-columns", "", "comma-separated columns to force to text on CSV import")
	)
	fs.Parse(args)
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dataprism profile -data <csv> [-o artifact.json] [-profiles ...] [-sample N]")
		fs.PrintDefaults()
		os.Exit(2)
	}
	d, err := readArtifactCSV(*dataPath, *textCols)
	if err != nil {
		fatal(err)
	}
	var opts dataprism.DiscoveryOptions
	if err := applyProfileSelector(&opts, *profiles); err != nil {
		fatal(err)
	}
	if *sample > 0 {
		opts.Sample = dataprism.SampleOptions{Cap: *sample, Seed: *sampleSeed}
	}
	a, err := artifact.Build(d, opts)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		if err := a.WriteFile(*outPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dataprism: %d profiles across %d classes pinned to %s (fingerprint %s)\n",
			len(a.Profiles), len(a.Classes), *outPath, a.Fingerprint)
		return
	}
	if err := a.Encode(os.Stdout); err != nil {
		fatal(err)
	}
}

// diffCmd implements `dataprism diff baseline.json current.json`: structural
// artifact comparison with a drift gate. Exit codes: 0 no drift over the
// threshold, 1 drift over the threshold, 2 incompatible artifacts or usage.
func diffCmd(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		threshold = fs.Float64("threshold", 0, "drift-magnitude gate: exit nonzero when any profile appeared/disappeared or drifted beyond this")
		jsonOut   = fs.Bool("json", false, "emit the diff as JSON")
	)
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dataprism diff [-threshold t] <baseline.json> <current.json>")
		fs.PrintDefaults()
		os.Exit(2)
	}
	old, err := artifact.ReadFile(fs.Arg(0))
	if err != nil {
		fatal2(err)
	}
	new, err := artifact.ReadFile(fs.Arg(1))
	if err != nil {
		fatal2(err)
	}
	diff, err := artifact.Compare(old, new)
	if err != nil {
		fatal2(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diff); err != nil {
			fatal2(err)
		}
	} else {
		fmt.Print(diff.String())
	}
	if diff.Exceeds(*threshold) {
		os.Exit(1)
	}
}

// watchCmd implements `dataprism watch`: poll a feed CSV, re-profile it
// against the pinned baseline, and stream drift events. An event escalates
// when a drifted baseline profile is discriminative — violated by the
// current feed beyond -eps — which is the precondition for it to appear in
// a future DataPrism explanation. With -ticks (CI-gate mode) the process
// exits 3 if any event escalated.
func watchCmd(args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	var (
		baselinePath = fs.String("baseline", "", "pinned baseline artifact (from `dataprism profile`)")
		dataPath     = fs.String("data", "", "CSV file of the watched feed (re-read on every tick)")
		interval     = fs.Duration("interval", 10*time.Second, "re-profile cadence")
		ticks        = fs.Int("ticks", 0, "stop after this many observations and exit 3 if any escalated (0 = watch until interrupted)")
		eps          = fs.Float64("eps", 0, "violation threshold above which a drifted baseline profile is discriminative")
		threshold    = fs.Float64("threshold", 0, "additionally escalate on any drift magnitude beyond this, discriminative or not (0 = discriminative-only)")
		systemCmd    = fs.String("system-cmd", "", "optional oracle: external command receiving CSV on stdin, printing a malfunction score to correlate drift with behavior")
		textCols     = fs.String("text-columns", "", "comma-separated columns to force to text on CSV import")
		jsonOut      = fs.Bool("json", false, "emit one JSON event per line instead of text")
	)
	fs.Parse(args)
	if *baselinePath == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "usage: dataprism watch -baseline <artifact.json> -data <feed.csv> [-interval 10s] [-ticks N]")
		fs.PrintDefaults()
		os.Exit(2)
	}
	base, err := artifact.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	w := &artifact.Watcher{
		Baseline: base,
		Source: func() (*dataset.Dataset, error) {
			return readArtifactCSV(*dataPath, *textCols)
		},
		Options:   dataprism.DiscoveryOptions{},
		Eps:       *eps,
		Threshold: *threshold,
	}
	if *systemCmd != "" {
		w.Oracle = &pipeline.External{Command: strings.Fields(*systemCmd)}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	escalated := false
	emit := func(ev *artifact.Event) {
		if ev.Escalated {
			escalated = true
		}
		if *jsonOut {
			data, err := json.Marshal(ev)
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(data))
			return
		}
		printWatchEvent(ev)
	}
	if *ticks > 0 {
		for i := 0; i < *ticks; i++ {
			ev, err := w.Tick(ctx)
			if errors.Is(err, context.Canceled) {
				break // interrupted mid-tick: fall through to the gate
			}
			if err != nil {
				fatal(err)
			}
			emit(ev)
			if i+1 < *ticks {
				select {
				case <-ctx.Done():
					i = *ticks // interrupted: fall through to the gate
				case <-time.After(*interval):
				}
			}
		}
		if escalated {
			os.Exit(3)
		}
		return
	}
	err = w.Run(ctx, *interval, emit)
	if err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	if escalated {
		os.Exit(3)
	}
}

// printWatchEvent renders one observation as compact text lines.
func printWatchEvent(ev *artifact.Event) {
	status := "ok"
	if ev.Escalated {
		status = "ESCALATED"
	}
	score := ""
	if ev.HasScore {
		score = fmt.Sprintf(", oracle score %.3f", ev.Score)
	}
	fmt.Printf("tick %d [%s]: +%d -%d ~%d profiles%s\n",
		ev.Seq, status, len(ev.Diff.Added), len(ev.Diff.Removed), len(ev.Diff.Changed), score)
	if s := ev.Diff.String(); s != "" {
		for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
			fmt.Println("  " + line)
		}
	}
	for _, a := range ev.Alerts {
		fmt.Printf("  ! %s %s is discriminative: violation %.3f (drift %.3f)\n",
			a.Class, a.Key, a.Violation, a.Magnitude)
	}
}

// readArtifactCSV loads a CSV with the artifact subcommands' shared import
// options.
func readArtifactCSV(path, textCols string) (*dataprism.Dataset, error) {
	inferOpts := dataprism.CSVInferOptions{}
	if textCols != "" {
		inferOpts.TextColumns = strings.Split(textCols, ",")
	}
	return dataprism.ReadCSVFile(path, inferOpts)
}

// loadBaselineArtifact resolves the main explain flow's -baseline flag:
// the decoded pinned profiles plus the artifact's fingerprint for report
// provenance.
func loadBaselineArtifact(path string) (profiles []profile.Profile, fingerprint string, err error) {
	a, err := artifact.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	decoded, err := a.DecodedProfiles()
	if err != nil {
		return nil, "", err
	}
	out := make([]profile.Profile, len(decoded))
	for i, d := range decoded {
		out[i] = d.Profile
	}
	return out, a.Fingerprint, nil
}

// fatal2 is fatal with exit code 2 — the diff subcommand's "incomparable or
// unusable inputs" code, distinct from exit 1 (drift over threshold).
func fatal2(err error) {
	fmt.Fprintln(os.Stderr, "dataprism:", err)
	os.Exit(2)
}
