package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// scriptSys replays a fixed sequence of ScoreResults; the last entry repeats
// once the script is exhausted.
type scriptSys struct {
	mu     sync.Mutex
	script []ScoreResult
	calls  int
}

func (s *scriptSys) Name() string { return "script" }

func (s *scriptSys) TryMalfunctionScore(context.Context, *dataset.Dataset) ScoreResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.calls
	s.calls++
	if i >= len(s.script) {
		i = len(s.script) - 1
	}
	return s.script[i]
}

func (s *scriptSys) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func transientRes() ScoreResult { return transientResult(1, "boom") }

func successRes(score float64) ScoreResult { return ScoreResult{Score: score, Attempts: 1} }

func TestRetryTransientThenSuccess(t *testing.T) {
	sys := &scriptSys{script: []ScoreResult{transientRes(), transientRes(), successRes(0.4)}}
	r := &Retry{System: sys, Max: 3, BaseDelay: time.Millisecond}
	res := r.TryMalfunctionScore(context.Background(), extData())
	if res.Err != nil {
		t.Fatalf("err = %v, want success after retries", res.Err)
	}
	if res.Score != 0.4 {
		t.Fatalf("score = %v", res.Score)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (accumulated across retries)", res.Attempts)
	}
	if sys.Calls() != 3 {
		t.Fatalf("oracle calls = %d", sys.Calls())
	}
}

func TestRetryRespectsMax(t *testing.T) {
	sys := &scriptSys{script: []ScoreResult{transientRes()}}
	r := &Retry{System: sys, Max: 3, BaseDelay: time.Millisecond}
	res := r.TryMalfunctionScore(context.Background(), extData())
	if res.Err == nil || !errors.Is(res.Err, ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", res.Err)
	}
	if !res.Transient {
		t.Fatal("exhausted retries must stay transient")
	}
	if res.Attempts != 3 || sys.Calls() != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3/3", res.Attempts, sys.Calls())
	}
}

func TestRetryPassesThroughNonTransient(t *testing.T) {
	cases := map[string]ScoreResult{
		"deterministic": {Score: 1, Deterministic: true, Attempts: 1},
		"permanent":     {Score: math.NaN(), Err: errors.New("misconfigured"), Attempts: 1},
		"breaker-open": {
			Score:     math.NaN(),
			Err:       fmt.Errorf("rejected: %w", ErrBreakerOpen),
			Transient: true,
		},
	}
	for name, scripted := range cases {
		sys := &scriptSys{script: []ScoreResult{scripted}}
		r := &Retry{System: sys, Max: 5, BaseDelay: time.Millisecond}
		res := r.TryMalfunctionScore(context.Background(), extData())
		if sys.Calls() != 1 {
			t.Errorf("%s: retried a non-retryable result (%d calls)", name, sys.Calls())
		}
		if name == "deterministic" && (res.Err != nil || res.Score != 1 || !res.Deterministic) {
			t.Errorf("deterministic result mangled: %+v", res)
		}
	}
}

func TestRetryAbandonsBackoffOnCancel(t *testing.T) {
	sys := &scriptSys{script: []ScoreResult{transientRes()}}
	r := &Retry{System: sys, Max: 5, BaseDelay: 10 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := r.TryMalfunctionScore(ctx, extData())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backoff ignored cancellation: took %v", elapsed)
	}
	if res.Err == nil || !errors.Is(res.Err, ErrTransient) {
		t.Fatalf("err = %v, want transient abandonment", res.Err)
	}
	if sys.Calls() != 1 {
		t.Fatalf("calls = %d, want 1 (no attempt after cancellation)", sys.Calls())
	}
}

func TestRetryNoAttemptAfterCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sys := &TryFunc{SystemName: "cancel-on-first", Try: func(context.Context, *dataset.Dataset) ScoreResult {
		cancel() // the caller pulls the plug while the first attempt runs
		return transientRes()
	}}
	r := &Retry{System: sys, Max: 5, BaseDelay: time.Millisecond}
	res := r.TryMalfunctionScore(ctx, extData())
	if res.Err == nil {
		t.Fatal("expected the transient failure to surface, not a retry")
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1: no retries once ctx is cancelled", res.Attempts)
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	r := &Retry{BaseDelay: time.Second}
	want := []time.Duration{1, 2, 4, 5, 5}
	for k := 1; k <= len(want); k++ {
		if got := r.delay(k); got != want[k-1]*time.Second {
			t.Fatalf("delay(%d) = %v, want %v", k, got, want[k-1]*time.Second)
		}
	}
}
