package artifact

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// Alert is one baseline profile whose drift is discriminative: its
// parameters moved (or it disappeared) in the re-profile AND the pinned
// baseline profile is violated by the current data beyond epsilon — the
// exact candidate shape DataPrism's root-cause search starts from. An alert
// therefore predicts that the system consuming this feed is at risk even
// before its malfunction score degrades.
type Alert struct {
	Class string `json:"class"`
	Key   string `json:"key"`
	// Magnitude is the drift magnitude from the diff (1 for removed).
	Magnitude float64 `json:"magnitude"`
	// Violation is how much the current data violates the pinned baseline
	// profile, in [0,1].
	Violation float64 `json:"violation"`
}

// Event is one watch observation: the structural diff of the current feed
// against the pinned baseline, the discriminative subset of that drift, and
// (when an oracle is configured) the system's malfunction score on the
// current feed.
type Event struct {
	// Seq numbers the ticks, starting at 1.
	Seq int `json:"seq"`
	// Diff is the structural drift against the pinned baseline.
	Diff *Diff `json:"diff"`
	// Alerts are the drifted baseline profiles that are discriminative on
	// the current feed.
	Alerts []Alert `json:"alerts,omitempty"`
	// Escalated reports whether the event crosses the gate: any
	// discriminative alert, or any drift beyond the configured threshold.
	Escalated bool `json:"escalated"`
	// Score is the oracle's malfunction score on the current feed; HasScore
	// is false when no oracle is configured.
	Score    float64 `json:"score,omitempty"`
	HasScore bool    `json:"has_score,omitempty"`
}

// Watcher re-profiles a feed and diffs it against a pinned baseline
// artifact, streaming drift events. The CLI's `watch` subcommand wraps it
// around file polling; tests and examples drive Tick directly with an
// in-memory Source.
type Watcher struct {
	// Baseline is the pinned artifact drift is measured against. Required.
	Baseline *Artifact
	// Source produces the current snapshot of the watched feed. Required.
	Source func() (*dataset.Dataset, error)
	// Oracle, when set, scores the system's malfunction on the current feed
	// under the tick's context, so events correlate structural drift with
	// observed behavior.
	Oracle pipeline.FallibleSystem
	// Options configures re-profiling. Build forces the class selection to
	// the baseline's recorded class list, so watch diffs are always
	// like-for-like even if defaults change.
	Options profile.Options
	// Eps is the violation threshold above which a drifted baseline profile
	// counts as discriminative (default 0).
	Eps float64
	// Threshold is the drift-magnitude gate for escalation independent of
	// discriminativeness (default: escalate only on discriminative alerts).
	Threshold float64
	// baselineProfiles caches the decoded baseline for violation checks.
	baselineProfiles []Decoded
	seq              int
}

// Tick performs one observation: snapshot the feed, re-profile it, diff
// against the baseline, and classify the drift. ctx bounds the oracle
// evaluation.
func (w *Watcher) Tick(ctx context.Context) (*Event, error) {
	if w.Baseline == nil {
		return nil, fmt.Errorf("artifact: watcher without a baseline")
	}
	if w.Source == nil {
		return nil, fmt.Errorf("artifact: watcher without a source")
	}
	if w.baselineProfiles == nil {
		decoded, err := w.Baseline.DecodedProfiles()
		if err != nil {
			return nil, err
		}
		w.baselineProfiles = decoded
	}
	d, err := w.Source()
	if err != nil {
		return nil, fmt.Errorf("artifact: watch source: %w", err)
	}
	opts := w.Options
	opts.Classes = make(map[string]bool)
	for _, c := range profile.Discoverers() {
		opts.Classes[c.Name] = false
	}
	for _, name := range w.Baseline.Classes {
		opts.Classes[name] = true
	}
	current, err := Build(d, opts)
	if err != nil {
		return nil, err
	}
	diff, err := Compare(w.Baseline, current)
	if err != nil {
		return nil, err
	}
	w.seq++
	ev := &Event{Seq: w.seq, Diff: diff}
	// A drifted or vanished baseline profile is worth escalating exactly
	// when it is discriminative — the pinned profile, fitted on the
	// baseline, is violated by today's data. That is the precondition for
	// it to appear in a DataPrism explanation of a future malfunction.
	drifted := make(map[string]float64, len(diff.Changed)+len(diff.Removed))
	for _, c := range diff.Changed {
		drifted[c.Class+"\x00"+c.Key] = c.Magnitude
	}
	for _, e := range diff.Removed {
		drifted[e.Class+"\x00"+e.Key] = 1
	}
	for _, bp := range w.baselineProfiles {
		mag, ok := drifted[bp.Class+"\x00"+bp.Key]
		if !ok {
			continue
		}
		if v := bp.Profile.Violation(d); v > w.Eps {
			ev.Alerts = append(ev.Alerts, Alert{Class: bp.Class, Key: bp.Key, Magnitude: mag, Violation: v})
		}
	}
	ev.Escalated = len(ev.Alerts) > 0 || (w.Threshold > 0 && diff.Exceeds(w.Threshold))
	if w.Oracle != nil {
		r := w.Oracle.TryMalfunctionScore(ctx, d)
		if r.Err != nil {
			return nil, fmt.Errorf("artifact: watch oracle: %w", r.Err)
		}
		ev.Score, ev.HasScore = r.Score, true
	}
	return ev, nil
}

// Run ticks the watcher every interval until the context is cancelled,
// invoking onEvent for every observation. Errors from a tick abort the run.
// No tick starts once ctx is done, even when a slow tick left the ticker
// ready.
func (w *Watcher) Run(ctx context.Context, interval time.Duration, onEvent func(*Event)) error {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev, err := w.Tick(ctx)
		if err != nil {
			return err
		}
		if onEvent != nil {
			onEvent(ev)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
