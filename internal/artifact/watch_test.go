package artifact

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/profile"
)

// TestWatcherTick drives the watcher in-memory through a stable window and
// a drifted one: the stable tick must not escalate, the drifted tick must
// raise discriminative alerts whose violations exceed epsilon.
func TestWatcherTick(t *testing.T) {
	opts := profile.Options{}
	opts.Classes = map[string]bool{"distribution": true}
	baseline, err := Build(sensorData(1500, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}

	drifting := false
	w := &Watcher{
		Baseline: baseline,
		Source: func() (*dataset.Dataset, error) {
			if drifting {
				return sensorData(1500, 2, 1.5, 20), nil
			}
			return sensorData(1500, 2, 1, 0), nil
		},
		Oracle: &pipeline.TryFunc{SystemName: "alerts", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
			if drifting {
				return pipeline.ScoreResult{Score: 0.9, Attempts: 1}
			}
			return pipeline.ScoreResult{Score: 0.01, Attempts: 1}
		}},
		// Eps 0.1 tolerates the re-draw noise between the two stable seeds
		// while the injected drift's violations saturate near 1.
		Options: opts,
		Eps:     0.1,
	}

	stable, err := w.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stable.Seq != 1 {
		t.Errorf("first tick Seq = %d, want 1", stable.Seq)
	}
	if stable.Escalated {
		t.Errorf("stable window escalated: alerts %+v", stable.Alerts)
	}
	if !stable.HasScore || stable.Score != 0.01 {
		t.Errorf("oracle not threaded through: HasScore=%v Score=%g", stable.HasScore, stable.Score)
	}

	drifting = true
	drifted, err := w.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if drifted.Seq != 2 {
		t.Errorf("second tick Seq = %d, want 2", drifted.Seq)
	}
	if !drifted.Escalated || len(drifted.Alerts) == 0 {
		t.Fatalf("drifted window did not escalate: %+v", drifted)
	}
	for _, a := range drifted.Alerts {
		if a.Violation <= w.Eps {
			t.Errorf("alert %s/%s violation %g not above eps %g", a.Class, a.Key, a.Violation, w.Eps)
		}
		if a.Magnitude <= 0 || a.Magnitude > 1 {
			t.Errorf("alert %s/%s magnitude %g outside (0,1]", a.Class, a.Key, a.Magnitude)
		}
	}
	if drifted.Score != 0.9 {
		t.Errorf("drifted oracle score = %g, want 0.9", drifted.Score)
	}
}

// TestWatcherPinsBaselineClasses: the watcher re-profiles with the
// baseline's recorded class list even when its Options enable more, so
// diffs stay like-for-like and never report spurious additions.
func TestWatcherPinsBaselineClasses(t *testing.T) {
	lean := profile.Options{}
	baseline, err := Build(sensorData(800, 1, 1, 0), lean)
	if err != nil {
		t.Fatal(err)
	}
	wide := profile.Options{}
	wide.Classes = map[string]bool{"distribution": true, "fd": true, "unique": true}
	w := &Watcher{
		Baseline: baseline,
		Source:   func() (*dataset.Dataset, error) { return sensorData(800, 1, 1, 0), nil },
		Options:  wide,
	}
	ev, err := w.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Diff.Added) != 0 {
		t.Errorf("widened options leaked into the watch diff: %d added profiles", len(ev.Diff.Added))
	}
	if !ev.Diff.Empty() {
		t.Errorf("same content re-profile diffs non-empty:\n%s", ev.Diff)
	}
	if ev.HasScore {
		t.Error("HasScore true without an oracle")
	}
}

// TestWatcherThresholdGate: with a drift threshold set, non-discriminative
// drift alone escalates once its magnitude crosses the gate.
func TestWatcherThresholdGate(t *testing.T) {
	opts := profile.Options{}
	opts.Classes = map[string]bool{"distribution": true}
	baseline, err := Build(sensorData(1500, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &Watcher{
		Baseline: baseline,
		Source:   func() (*dataset.Dataset, error) { return sensorData(1500, 2, 1.5, 20), nil },
		Options:  opts,
		// Eps 1 makes discriminative alerts impossible; only the magnitude
		// gate can escalate.
		Eps:       1,
		Threshold: 0.01,
	}
	ev, err := w.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Alerts) != 0 {
		t.Errorf("eps=1 still produced alerts: %+v", ev.Alerts)
	}
	if !ev.Escalated {
		t.Error("magnitude gate did not escalate on heavy drift")
	}
}

// TestWatcherRun exercises the ticker loop: events stream until the context
// is cancelled.
func TestWatcherRun(t *testing.T) {
	opts := profile.Options{}
	baseline, err := Build(sensorData(200, 1, 1, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &Watcher{
		Baseline: baseline,
		Source:   func() (*dataset.Dataset, error) { return sensorData(200, 1, 1, 0), nil },
		Options:  opts,
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	err = w.Run(ctx, time.Millisecond, func(ev *Event) {
		events++
		if events >= 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Errorf("Run returned %v, want context.Canceled", err)
	}
	if events < 3 {
		t.Errorf("observed %d events, want at least 3", events)
	}
}

// TestWatcherRunNoTickAfterCancel checks that Run starts no tick once its
// context is cancelled, even when a tick slower than the interval left the
// ticker ready: the select between ctx.Done and a ready ticker picks at
// random, so each of 20 runs gets a chance to show an extra tick.
func TestWatcherRunNoTickAfterCancel(t *testing.T) {
	baseline, err := Build(sensorData(200, 1, 1, 0), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := sensorData(200, 1, 1, 0)
	extra := 0
	for run := 0; run < 20; run++ {
		ticks := 0
		w := &Watcher{
			Baseline: baseline,
			Source: func() (*dataset.Dataset, error) {
				ticks++
				time.Sleep(5 * time.Millisecond)
				return feed, nil
			},
			Options: profile.Options{},
		}
		ctx, cancel := context.WithCancel(context.Background())
		err := w.Run(ctx, time.Millisecond, func(*Event) { cancel() })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: Run returned %v, want context.Canceled", run, err)
		}
		extra += ticks - 1
	}
	if extra != 0 {
		t.Errorf("%d ticks started after cancellation over 20 runs, want 0", extra)
	}
}

// TestWatcherRunCancelsOracle checks that cancelling Run interrupts an
// in-flight oracle evaluation: the oracle sees the run's context, and Run
// returns an error wrapping context.Canceled.
func TestWatcherRunCancelsOracle(t *testing.T) {
	baseline, err := Build(sensorData(200, 1, 1, 0), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	w := &Watcher{
		Baseline: baseline,
		Source:   func() (*dataset.Dataset, error) { return sensorData(200, 1, 1, 0), nil },
		Options:  profile.Options{},
		Oracle: &pipeline.TryFunc{SystemName: "blocking", Try: func(ctx context.Context, _ *dataset.Dataset) pipeline.ScoreResult {
			close(started)
			<-ctx.Done()
			return pipeline.ScoreResult{Err: pipeline.ContextFailure(ctx), Transient: true, Attempts: 1}
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, time.Hour, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want an error wrapping context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after its context was cancelled")
	}
}

// TestWatcherValidation: a watcher without its required collaborators fails
// with a descriptive error instead of panicking.
func TestWatcherValidation(t *testing.T) {
	if _, err := (&Watcher{}).Tick(context.Background()); err == nil {
		t.Error("watcher without a baseline ticked")
	}
	a, err := Build(sensorData(50, 1, 1, 0), profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Watcher{Baseline: a}).Tick(context.Background()); err == nil {
		t.Error("watcher without a source ticked")
	}
}
