package remote

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// flagData builds a one-column dataset whose single value identifies it.
func flagData(v float64) *dataset.Dataset {
	d := dataset.New()
	d.MustAddNumeric("x", []float64{v})
	return d
}

// valueScorer scores a dataset by its first "x" value, counting calls.
type valueScorer struct {
	calls atomic.Int64
}

func (s *valueScorer) Name() string { return "value" }

func (s *valueScorer) TryMalfunctionScore(_ context.Context, d *dataset.Dataset) pipeline.ScoreResult {
	s.calls.Add(1)
	return pipeline.ScoreResult{Score: d.Num("x", 0), Attempts: 1}
}

// startWorker serves sys on a loopback listener for the test's duration.
func startWorker(t *testing.T, sys pipeline.FallibleSystem) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := &Worker{System: sys}
		w.Serve(ctx, ln) //nolint — shutdown error is the test teardown
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// deadAddr returns an endpoint that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestProtocolRoundTrip(t *testing.T) {
	cases := []pipeline.ScoreResult{
		{Score: 0.375, Attempts: 1},
		{Score: 1, Deterministic: true, Attempts: 2},
		{Score: math.NaN(), Err: errors.New("exploded"), Transient: true, Attempts: 3},
		{Score: math.NaN(), Err: errors.New("bad config"), Attempts: 1},
	}
	for i, want := range cases {
		got, err := decodeResponse(encodeResponse(want)[4:])
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if want.Err == nil {
			if got.Err != nil || got.Score != want.Score || got.Deterministic != want.Deterministic {
				t.Fatalf("case %d: got %+v, want %+v", i, got, want)
			}
		} else {
			if got.Err == nil || !math.IsNaN(got.Score) || got.Transient != want.Transient {
				t.Fatalf("case %d: got %+v, want failure like %+v", i, got, want)
			}
			if want.Transient && !errors.Is(got.Err, pipeline.ErrTransient) {
				t.Fatalf("case %d: transient classification lost: %v", i, got.Err)
			}
		}
		if got.Attempts != want.Attempts {
			t.Fatalf("case %d: attempts %d, want %d", i, got.Attempts, want.Attempts)
		}
	}

	d := flagData(0.5)
	frame, err := encodeRequest(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp, ok := parseRequestFingerprint(frame)
	if !ok || fp != d.Fingerprint() {
		t.Fatalf("parseRequestFingerprint = %x, %v, want %x", fp, ok, d.Fingerprint())
	}
	payload, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	fp2, table, err := decodeRequest(payload)
	if err != nil || fp2 != d.Fingerprint() {
		t.Fatalf("decodeRequest = %x, %v, want %x", fp2, err, d.Fingerprint())
	}
	back, err := decodeTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if back.Column("x").Kind != dataset.Numeric {
		t.Fatalf("kind lost in transit: %v", back.Column("x").Kind)
	}
	if back.Fingerprint() != d.Fingerprint() {
		t.Fatalf("round-tripped fingerprint %x, want %x", back.Fingerprint(), d.Fingerprint())
	}
}

// TestProtocolSchemaPinsStringKinds is the regression test for the sentiment
// scenario's panic: a string column whose every value parses as a float must
// come back Categorical/Text on the worker side, never re-typed Numeric.
func TestProtocolSchemaPinsStringKinds(t *testing.T) {
	d := dataset.New()
	if err := d.AddCategoricalColumn("target", []string{"-1", "1", "-1"}, nil); err != nil {
		t.Fatal(err)
	}
	frame, err := encodeRequest(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, table, err := decodeRequest(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeTable(table)
	if err != nil {
		t.Fatal(err)
	}
	col := back.Column("target")
	if col == nil || col.Kind == dataset.Numeric {
		t.Fatalf("string column re-typed in transit: %+v", col)
	}
	if got := col.StrAt(1); got != "1" {
		t.Fatalf("StrAt(1) = %q, want \"1\"", got)
	}
}

func TestWorkerScoresOverTCP(t *testing.T) {
	scorer := &valueScorer{}
	addr := startWorker(t, scorer)
	tr := newTransport(addr, nil, 0)
	defer tr.Close()
	ctx := context.Background()

	for _, v := range []float64{0.25, 0.75, 0.25} {
		res := tr.TryMalfunctionScore(ctx, flagData(v))
		if res.Err != nil || res.Score != v {
			t.Fatalf("score(%v) = %+v", v, res)
		}
	}
	if scorer.calls.Load() != 3 {
		t.Fatalf("worker calls = %d, want 3 (persistent connection, no cache)", scorer.calls.Load())
	}
}

func TestWorkerClassificationTravels(t *testing.T) {
	sys := &pipeline.TryFunc{SystemName: "classify", Try: func(_ context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		switch d.Num("x", 0) {
		case 1:
			return pipeline.ScoreResult{Score: 1, Deterministic: true, Attempts: 1}
		case 2:
			return pipeline.ScoreResult{Score: math.NaN(), Err: errors.New("flaky"), Transient: true, Attempts: 1}
		default:
			return pipeline.ScoreResult{Score: math.NaN(), Err: errors.New("misconfigured")}
		}
	}}
	tr := newTransport(startWorker(t, sys), nil, 0)
	defer tr.Close()
	ctx := context.Background()

	det := tr.TryMalfunctionScore(ctx, flagData(1))
	if det.Err != nil || !det.Deterministic || det.Score != 1 {
		t.Fatalf("deterministic result lost: %+v", det)
	}
	tra := tr.TryMalfunctionScore(ctx, flagData(2))
	if tra.Err == nil || !tra.Transient || !errors.Is(tra.Err, pipeline.ErrTransient) {
		t.Fatalf("transient result lost: %+v", tra)
	}
	perm := tr.TryMalfunctionScore(ctx, flagData(3))
	if perm.Err == nil || perm.Transient {
		t.Fatalf("permanent result lost: %+v", perm)
	}
}

func TestTransportRedialsAfterWorkerRestart(t *testing.T) {
	scorer := &valueScorer{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() {
		defer close(done1)
		(&Worker{System: scorer}).Serve(ctx1, ln)
	}()

	tr := newTransport(ln.Addr().String(), nil, 0)
	defer tr.Close()
	if res := tr.TryMalfunctionScore(context.Background(), flagData(0.5)); res.Err != nil {
		t.Fatalf("first score: %+v", res)
	}

	// Kill the worker: the persistent connection dies with it.
	cancel1()
	<-done1
	res := tr.TryMalfunctionScore(context.Background(), flagData(0.5))
	if res.Err == nil || !res.Transient {
		t.Fatalf("dead worker result = %+v, want transient failure", res)
	}

	// Restart on the same address: the transport redials and recovers.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Skipf("address not rebindable: %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		(&Worker{System: scorer}).Serve(ctx2, ln2)
	}()
	t.Cleanup(func() { cancel2(); <-done2 })
	if res := tr.TryMalfunctionScore(context.Background(), flagData(0.5)); res.Err != nil {
		t.Fatalf("post-restart score: %+v", res)
	}
}

func TestTransportObservesCancellation(t *testing.T) {
	block := make(chan struct{})
	sys := &pipeline.TryFunc{SystemName: "stuck", Try: func(ctx context.Context, _ *dataset.Dataset) pipeline.ScoreResult {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return pipeline.ScoreResult{Score: math.NaN(), Err: errors.New("stuck"), Transient: true, Attempts: 1}
	}}
	defer close(block)
	tr := newTransport(startWorker(t, sys), nil, 0)
	defer tr.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := tr.TryMalfunctionScore(ctx, flagData(0.5))
	if res.Err == nil || !res.Transient {
		t.Fatalf("result = %+v, want transient cancellation failure", res)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — the deadline did not propagate", elapsed)
	}
}

func TestFleetFailoverToHealthyWorker(t *testing.T) {
	scorer := &valueScorer{}
	live := startWorker(t, scorer)
	dead := deadAddr(t)
	fleet := NewFleet(Config{
		Addrs:          []string{dead, live},
		RetryMax:       1,
		RetryBaseDelay: time.Millisecond,
		DialTimeout:    200 * time.Millisecond,
	})
	defer fleet.Close()

	// Evaluate enough datasets that round-robin lands on the dead worker.
	for i := 0; i < 4; i++ {
		res := fleet.TryMalfunctionScore(context.Background(), flagData(float64(i+1)/10))
		if res.Err != nil || res.Score != float64(i+1)/10 {
			t.Fatalf("eval %d = %+v", i, res)
		}
	}
	st := fleet.FleetSnapshot()
	if st.Workers != 2 {
		t.Fatalf("workers = %d", st.Workers)
	}
	if st.Failovers == 0 || st.WorkerFaults == 0 {
		t.Fatalf("stats = %+v, want failovers over the dead worker", st)
	}
	diags := fleet.WorkerDiagnostics()
	var deadDiag *WorkerDiag
	for i := range diags {
		if diags[i].Addr == dead {
			deadDiag = &diags[i]
		}
	}
	if deadDiag == nil || len(deadDiag.RecentFailures) == 0 {
		t.Fatalf("dead worker has no failure diagnostics: %+v", diags)
	}
}

func TestFleetFallbackWhenAllWorkersDown(t *testing.T) {
	local := &valueScorer{}
	fleet := NewFleet(Config{
		Addrs:            []string{deadAddr(t), deadAddr(t)},
		Fallback:         local,
		RetryMax:         1,
		RetryBaseDelay:   time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		DialTimeout:      100 * time.Millisecond,
	})
	defer fleet.Close()

	// First evaluation: both workers fail, breakers open, fallback serves.
	res := fleet.TryMalfunctionScore(context.Background(), flagData(0.6))
	if res.Err != nil || res.Score != 0.6 {
		t.Fatalf("degraded eval = %+v", res)
	}
	// Second evaluation: the fleet is known-down, fallback serves directly.
	res = fleet.TryMalfunctionScore(context.Background(), flagData(0.7))
	if res.Err != nil || res.Score != 0.7 {
		t.Fatalf("second degraded eval = %+v", res)
	}
	st := fleet.FleetSnapshot()
	if st.Healthy != 0 || st.FallbackEvals != 2 {
		t.Fatalf("stats = %+v, want 0 healthy and 2 fallback evals", st)
	}
	if local.calls.Load() != 2 {
		t.Fatalf("fallback calls = %d, want 2", local.calls.Load())
	}
	if fleet.BreakerTrips() == 0 {
		t.Fatal("no breaker trips recorded across the fleet")
	}
}

// TestFleetFallbackBeforeBreakersOpen checks the fallback serves an
// evaluation every worker failed, each after its retries, while the
// breakers are still closed: with the default threshold of five a dead
// fleet's first failure must not abort the search.
func TestFleetFallbackBeforeBreakersOpen(t *testing.T) {
	local := &valueScorer{}
	fleet := NewFleet(Config{
		Addrs:            []string{deadAddr(t), deadAddr(t)},
		Fallback:         local,
		RetryMax:         1,
		RetryBaseDelay:   time.Millisecond,
		BreakerThreshold: 5,
		DialTimeout:      100 * time.Millisecond,
	})
	defer fleet.Close()
	for i, v := range []float64{0.25, 0.5, 0.75} {
		res := fleet.TryMalfunctionScore(context.Background(), flagData(v))
		if res.Err != nil || res.Score != v {
			t.Fatalf("eval %d = %+v, want the fallback's %g", i, res, v)
		}
	}
	st := fleet.FleetSnapshot()
	if st.Healthy != 2 || st.FallbackEvals != 3 || st.WorkerFaults != 6 {
		t.Fatalf("stats = %+v, want 2 healthy workers, 3 fallback evals, 6 worker faults", st)
	}
	if local.calls.Load() != 3 {
		t.Fatalf("fallback calls = %d, want 3", local.calls.Load())
	}
}

// TestFleetFailureTransientWithoutFallback checks that, with no fallback,
// a failure while breakers are still closed stays a transient failure,
// not ErrFleetDown.
func TestFleetFailureTransientWithoutFallback(t *testing.T) {
	fleet := NewFleet(Config{
		Addrs:            []string{deadAddr(t)},
		RetryMax:         1,
		RetryBaseDelay:   time.Millisecond,
		BreakerThreshold: 5,
		DialTimeout:      100 * time.Millisecond,
	})
	defer fleet.Close()
	res := fleet.TryMalfunctionScore(context.Background(), flagData(0.5))
	if res.Err == nil || errors.Is(res.Err, ErrFleetDown) || !res.Transient {
		t.Fatalf("result = %+v, want a transient failure", res)
	}
}

func TestFleetDownIsFatalWithoutFallback(t *testing.T) {
	fleet := NewFleet(Config{
		Addrs:            []string{deadAddr(t)},
		RetryMax:         1,
		RetryBaseDelay:   time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		DialTimeout:      100 * time.Millisecond,
	})
	defer fleet.Close()
	res := fleet.TryMalfunctionScore(context.Background(), flagData(0.5))
	if res.Err == nil || !errors.Is(res.Err, ErrFleetDown) {
		t.Fatalf("result = %+v, want ErrFleetDown", res)
	}
	if !errors.Is(res.Err, pipeline.ErrBreakerOpen) {
		t.Fatal("ErrFleetDown must wrap ErrBreakerOpen so searches abort")
	}
	// Second call takes the fast path (no dispatch): still ErrFleetDown.
	res = fleet.TryMalfunctionScore(context.Background(), flagData(0.5))
	if !errors.Is(res.Err, ErrFleetDown) {
		t.Fatalf("fast-path result = %+v", res)
	}
}

func TestFleetHedgesStragglers(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := &pipeline.TryFunc{SystemName: "slow", Try: func(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return pipeline.ScoreResult{Score: d.Num("x", 0), Attempts: 1}
	}}
	fast := &valueScorer{}
	fleet := NewFleet(Config{
		Addrs:      []string{startWorker(t, slow), startWorker(t, fast)},
		HedgeAfter: 5 * time.Millisecond,
	})
	defer fleet.Close()

	// Round-robin starts at the slow worker; the hedge fires and the fast
	// worker answers first.
	res := fleet.TryMalfunctionScore(context.Background(), flagData(0.9))
	if res.Err != nil || res.Score != 0.9 {
		t.Fatalf("hedged eval = %+v", res)
	}
	st := fleet.FleetSnapshot()
	if st.Hedges != 1 || st.Dispatched != 2 {
		t.Fatalf("stats = %+v, want 1 hedge and 2 dispatches", st)
	}
	if fast.calls.Load() != 1 {
		t.Fatalf("fast worker calls = %d, want the hedged duplicate", fast.calls.Load())
	}
}

func TestNetFaultInjectorDeterministicRecovery(t *testing.T) {
	scorer := &valueScorer{}
	addrs := []string{startWorker(t, scorer), startWorker(t, scorer)}
	for _, failFirst := range []int{1, 2} {
		inj := &NetFaultInjector{FailFirst: failFirst}
		fleet := NewFleet(Config{
			Addrs:          addrs,
			Dial:           inj.DialContext,
			RetryMax:       failFirst + 1,
			RetryBaseDelay: time.Millisecond,
		})
		for i := 0; i < 8; i++ {
			v := float64(i+1) / 100
			res := fleet.TryMalfunctionScore(context.Background(), flagData(v))
			if res.Err != nil || res.Score != v {
				t.Fatalf("K=%d eval %d = %+v", failFirst, i, res)
			}
		}
		if inj.Injected() == 0 {
			t.Fatalf("K=%d: injector idle", failFirst)
		}
		if st := fleet.FleetSnapshot(); st.WorkerFaults != 0 {
			t.Fatalf("K=%d: %d faults leaked past the per-worker retries: %+v", failFirst, st.WorkerFaults, st)
		}
		fleet.Close()
	}
}

func TestFleetRejectsUndecodableDataset(t *testing.T) {
	// A worker that cannot score the dataset it was sent answers with a
	// permanent error, which the client must not retry into a success.
	sys := &pipeline.TryFunc{SystemName: "perm", Try: func(context.Context, *dataset.Dataset) pipeline.ScoreResult {
		return pipeline.ScoreResult{Score: math.NaN(), Err: errors.New("unsupported schema")}
	}}
	fleet := NewFleet(Config{Addrs: []string{startWorker(t, sys)}, RetryMax: 1, RetryBaseDelay: time.Millisecond})
	defer fleet.Close()
	res := fleet.TryMalfunctionScore(context.Background(), flagData(0.5))
	if res.Err == nil || res.Transient {
		t.Fatalf("result = %+v, want permanent failure", res)
	}
}
