package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
)

// fakeClock is a manually advanced clock for breaker cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func clockOf(c *fakeClock) func() time.Time  { return c.now }
func mustOpen(t *testing.T, b *Breaker, want bool) {
	t.Helper()
	if b.Open() != want {
		t.Fatalf("Open() = %v, want %v", b.Open(), want)
	}
}

func TestBreakerTripsAfterConsecutiveTransients(t *testing.T) {
	clk := newFakeClock()
	sys := &scriptSys{script: []ScoreResult{transientRes()}}
	b := &Breaker{System: sys, FailureThreshold: 3, Cooldown: time.Minute, Clock: clockOf(clk)}

	for i := 0; i < 3; i++ {
		res := b.TryMalfunctionScore(context.Background(), extData())
		if res.Err == nil || errors.Is(res.Err, ErrBreakerOpen) {
			t.Fatalf("call %d: err = %v, want the inner transient failure", i, res.Err)
		}
	}
	mustOpen(t, b, true)
	if b.BreakerTrips() != 1 {
		t.Fatalf("trips = %d, want 1", b.BreakerTrips())
	}

	// While open: fail fast, no oracle call, Attempts 0.
	res := b.TryMalfunctionScore(context.Background(), extData())
	if !errors.Is(res.Err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", res.Err)
	}
	if res.Attempts != 0 {
		t.Fatalf("attempts = %d, want 0 (no oracle call while open)", res.Attempts)
	}
	if sys.Calls() != 3 {
		t.Fatalf("oracle calls = %d, want 3 (fail-fast must not consult the scorer)", sys.Calls())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	sys := &scriptSys{script: []ScoreResult{
		transientRes(), transientRes(), // trip
		transientRes(),  // failed probe: re-open
		successRes(0.3), // successful probe: close
		successRes(0.3),
	}}
	b := &Breaker{System: sys, FailureThreshold: 2, Cooldown: time.Minute, Clock: clockOf(clk)}
	ctx := context.Background()
	d := extData()

	b.TryMalfunctionScore(ctx, d)
	b.TryMalfunctionScore(ctx, d)
	mustOpen(t, b, true)

	// Cooldown elapses: the next call probes the scorer, which fails again →
	// the circuit re-opens for another full cooldown.
	clk.advance(61 * time.Second)
	mustOpen(t, b, false)
	if res := b.TryMalfunctionScore(ctx, d); errors.Is(res.Err, ErrBreakerOpen) || res.Err == nil {
		t.Fatalf("probe result = %+v, want the inner transient failure", res)
	}
	mustOpen(t, b, true)
	if b.BreakerTrips() != 2 {
		t.Fatalf("trips = %d, want 2 after failed probe", b.BreakerTrips())
	}

	// Second probe succeeds: the circuit closes and stays closed.
	clk.advance(61 * time.Second)
	if res := b.TryMalfunctionScore(ctx, d); res.Err != nil || res.Score != 0.3 {
		t.Fatalf("successful probe = %+v", res)
	}
	mustOpen(t, b, false)
	if res := b.TryMalfunctionScore(ctx, d); res.Err != nil {
		t.Fatalf("post-close call = %+v", res)
	}
	if sys.Calls() != 5 {
		t.Fatalf("oracle calls = %d, want 5", sys.Calls())
	}
}

func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	clk := newFakeClock()
	sys := &scriptSys{script: []ScoreResult{transientRes()}}
	b := &Breaker{System: sys, FailureThreshold: 2, Cooldown: time.Minute, Clock: clockOf(clk)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Transient failures under the caller's own cancelled context say nothing
	// about the scorer's health: the circuit must stay closed.
	for i := 0; i < 5; i++ {
		b.TryMalfunctionScore(ctx, extData())
	}
	mustOpen(t, b, false)
	if b.BreakerTrips() != 0 {
		t.Fatalf("trips = %d, want 0", b.BreakerTrips())
	}
}

func TestBreakerResetsOnSuccessAndDeterministic(t *testing.T) {
	clk := newFakeClock()
	sys := &scriptSys{script: []ScoreResult{
		transientRes(),
		{Score: 1, Deterministic: true, Attempts: 1}, // scorer reachable: resets
		transientRes(),
		successRes(0.2), // resets again
		transientRes(),
	}}
	b := &Breaker{System: sys, FailureThreshold: 2, Cooldown: time.Minute, Clock: clockOf(clk)}
	ctx := context.Background()
	d := extData()
	for i := 0; i < 5; i++ {
		b.TryMalfunctionScore(ctx, d)
	}
	// No two *consecutive* transients ever happened: still closed.
	mustOpen(t, b, false)
	if b.BreakerTrips() != 0 {
		t.Fatalf("trips = %d, want 0", b.BreakerTrips())
	}
}

// TestBreakerSingleHalfOpenProbe is the regression test for the half-open
// race: once the cooldown elapses, exactly one caller may probe the scorer.
// While that probe is blocked in flight, every concurrent evaluation must
// fail fast with ErrBreakerOpen instead of also reaching the scorer.
func TestBreakerSingleHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	sys := &TryFunc{SystemName: "slow", Try: func(context.Context, *dataset.Dataset) ScoreResult {
		switch calls.Add(1) {
		case 1:
			return transientRes() // trips the threshold-1 breaker
		case 2:
			// First post-cooldown call: the probe. Block it mid-flight.
			close(entered)
			<-release
		}
		return successRes(0.3)
	}}
	b := &Breaker{System: sys, FailureThreshold: 1, Cooldown: time.Minute, Clock: clockOf(clk)}

	ctx := context.Background()
	d := extData()
	b.TryMalfunctionScore(ctx, d) // transient → trips (threshold 1)
	mustOpen(t, b, true)
	clk.advance(61 * time.Second)

	probeDone := make(chan ScoreResult, 1)
	go func() { probeDone <- b.TryMalfunctionScore(ctx, d) }()
	<-entered // the probe is inside the scorer, blocked

	// Concurrent callers while the probe is in flight: all fail fast.
	const concurrent = 8
	var wg sync.WaitGroup
	rejected := make([]ScoreResult, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rejected[i] = b.TryMalfunctionScore(ctx, d)
		}(i)
	}
	wg.Wait()
	for i, res := range rejected {
		if !errors.Is(res.Err, ErrBreakerOpen) {
			t.Fatalf("caller %d: err = %v, want ErrBreakerOpen while probe in flight", i, res.Err)
		}
		if res.Attempts != 0 {
			t.Fatalf("caller %d: attempts = %d, want 0", i, res.Attempts)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("scorer calls = %d, want 2 (trip + single probe) — %d extra probes raced through",
			got, got-2)
	}

	// Release the probe: success closes the circuit for everyone.
	close(release)
	if res := <-probeDone; res.Err != nil || res.Score != 0.3 {
		t.Fatalf("probe result = %+v", res)
	}
	mustOpen(t, b, false)
	if res := b.TryMalfunctionScore(ctx, d); res.Err != nil || res.Score != 0.3 {
		t.Fatalf("post-close call = %+v", res)
	}
}

// TestBreakerCancelledProbeReleasesSlot: a probe cut short by its caller's
// cancelled context must settle nothing — the circuit stays half-open and
// the next caller gets to probe.
func TestBreakerCancelledProbeReleasesSlot(t *testing.T) {
	clk := newFakeClock()
	sys := &scriptSys{script: []ScoreResult{
		transientRes(), // trip
		{Score: 0, Err: context.Canceled, Attempts: 1}, // probe under cancelled ctx
		successRes(0.4), // second probe succeeds
	}}
	b := &Breaker{System: sys, FailureThreshold: 1, Cooldown: time.Minute, Clock: clockOf(clk)}
	d := extData()

	b.TryMalfunctionScore(context.Background(), d)
	mustOpen(t, b, true)
	clk.advance(61 * time.Second)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if res := b.TryMalfunctionScore(cancelled, d); !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("cancelled probe = %+v", res)
	}
	// Slot released, circuit still half-open: the next caller probes and
	// closes the circuit.
	if res := b.TryMalfunctionScore(context.Background(), d); res.Err != nil || res.Score != 0.4 {
		t.Fatalf("follow-up probe = %+v", res)
	}
	mustOpen(t, b, false)
	if b.BreakerTrips() != 1 {
		t.Fatalf("trips = %d, want 1 (cancelled probe must not re-open)", b.BreakerTrips())
	}
}
