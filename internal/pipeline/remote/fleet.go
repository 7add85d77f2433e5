package remote

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// ErrFleetDown is returned when every fleet worker is unhealthy and no
// fallback is configured. It wraps pipeline.ErrBreakerOpen, so searches
// treat it exactly like a single dead scorer's open circuit: fatal, abort
// rather than burn the budget.
var ErrFleetDown = fmt.Errorf("remote: every fleet worker unavailable: %w", pipeline.ErrBreakerOpen)

// Config parameterizes a FleetSystem.
type Config struct {
	// Addrs lists the worker endpoints (required, host:port each).
	Addrs []string
	// SystemName is the oracle identity the fleet reports; it must match
	// the name the workers' wrapped systems carry, since score caches key
	// on it. Empty derives "fleet(addr, ...)".
	SystemName string
	// Fallback, when set, is a local scorer that serves an evaluation every
	// healthy worker failed, each after its retries, and every evaluation
	// while no worker is healthy — graceful degradation instead of a dead
	// search.
	Fallback pipeline.FallibleSystem
	// HedgeAfter launches a speculative duplicate of an in-flight
	// evaluation on the next healthy worker when the primary has not
	// answered within this duration; the first answer wins. Zero disables
	// hedging.
	HedgeAfter time.Duration
	// RetryMax and RetryBaseDelay parameterize the per-worker
	// pipeline.Retry (zero values mean that type's defaults).
	RetryMax       int
	RetryBaseDelay time.Duration
	// BreakerThreshold and BreakerCooldown parameterize the per-worker
	// pipeline.Breaker (zero values mean that type's defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// Dial overrides the dialer — the seam where tests and the chaos suite
	// inject network faults. Nil means net.Dialer.DialContext.
	Dial DialFunc
}

// fleetWorker is one endpoint with its client stack and diagnostics.
type fleetWorker struct {
	addr    string
	tr      *transport
	breaker *pipeline.Breaker
	stack   pipeline.FallibleSystem

	failures pipeline.FailureRing
}

// WorkerDiag is one worker's health and failure history, for reports.
type WorkerDiag struct {
	Addr           string   `json:"addr"`
	Healthy        bool     `json:"healthy"`
	BreakerTrips   int      `json:"breaker_trips"`
	RecentFailures []string `json:"recent_failures,omitempty"`
}

// FleetSystem implements pipeline.FallibleSystem over N remote workers:
// per-worker Breaker{Retry{transport}} stacks, round-robin placement over
// healthy workers, failover on worker failure, optional hedged dispatch,
// and degradation to Fallback when every worker failed an evaluation (or
// ErrFleetDown once the whole fleet is unhealthy and there is none). It
// also implements pipeline.FleetReporter and pipeline.TripCounter, so the
// engine folds fleet behavior into its Stats.
type FleetSystem struct {
	name       string
	fallback   pipeline.FallibleSystem
	hedgeAfter time.Duration
	workers    []*fleetWorker
	rr         atomic.Uint64

	mu            sync.Mutex
	dispatched    int
	hedges        int
	failovers     int
	workerFaults  int
	fallbackEvals int
	// frames holds the request frames of finished evaluations that no
	// dispatch reads any more; the next evaluation encodes into one.
	frames [][]byte
}

// NewFleet builds the client stack for each configured worker.
func NewFleet(cfg Config) *FleetSystem {
	name := cfg.SystemName
	if name == "" {
		name = "fleet(" + strings.Join(cfg.Addrs, ", ") + ")"
	}
	f := &FleetSystem{name: name, fallback: cfg.Fallback, hedgeAfter: cfg.HedgeAfter}
	for _, addr := range cfg.Addrs {
		tr := newTransport(addr, cfg.Dial, cfg.DialTimeout)
		br := &pipeline.Breaker{
			System: &pipeline.Retry{
				System:    tr,
				Max:       cfg.RetryMax,
				BaseDelay: cfg.RetryBaseDelay,
			},
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
		}
		f.workers = append(f.workers, &fleetWorker{addr: addr, tr: tr, breaker: br, stack: br})
	}
	return f
}

// Name implements FallibleSystem.
func (f *FleetSystem) Name() string { return f.name }

// Close tears down every worker connection.
func (f *FleetSystem) Close() {
	for _, w := range f.workers {
		w.tr.Close()
	}
}

// healthyOrder returns the workers currently accepting evaluations,
// rotated by the round-robin counter so load spreads across the fleet.
func (f *FleetSystem) healthyOrder() []*fleetWorker {
	var healthy []*fleetWorker
	for _, w := range f.workers {
		if !w.breaker.Open() {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) > 1 {
		start := int(f.rr.Add(1)-1) % len(healthy)
		healthy = append(healthy[start:], healthy[:start]...)
	}
	return healthy
}

// TryMalfunctionScore implements FallibleSystem. The dataset is serialized
// once; the evaluation runs on the first healthy worker, fails over to the
// next on worker failure, and — when hedging is enabled — speculatively
// duplicates onto the next worker if the primary straggles. The first
// successful answer wins; since every worker computes the same pure score,
// which worker answers never changes the result.
func (f *FleetSystem) TryMalfunctionScore(ctx context.Context, d *dataset.Dataset) pipeline.ScoreResult {
	order := f.healthyOrder()
	if len(order) == 0 {
		return f.degrade(ctx, d, 0)
	}
	req, err := encodeRequest(d, f.takeFrame())
	if err != nil {
		return pipeline.ScoreResult{Score: math.NaN(), Err: err}
	}
	ctx = withPayload(ctx, req)

	results := make(chan pipeline.ScoreResult, len(order))
	launched, received := 0, 0
	// The frame is reused only once every dispatch has returned: a hedge
	// or failover still out may yet write it, so it is left to the GC.
	defer func() {
		if received == launched {
			f.putFrame(req)
		}
	}()
	launch := func() {
		w := order[launched]
		launched++
		f.count(func() { f.dispatched++ })
		go func() {
			r := w.stack.TryMalfunctionScore(ctx, d)
			if r.Err != nil && ctx.Err() == nil {
				w.failures.Record(r.Err.Error())
			}
			results <- r
		}()
	}
	launch()

	var hedge <-chan time.Time
	if f.hedgeAfter > 0 && len(order) > 1 {
		t := time.NewTimer(f.hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	attempts := 0
	var last pipeline.ScoreResult
	for {
		select {
		case r := <-results:
			received++
			attempts += r.Attempts
			if r.Err == nil {
				r.Attempts = attempts
				return r
			}
			f.count(func() { f.workerFaults++ })
			last = r
			if launched < len(order) {
				f.count(func() { f.failovers++ })
				launch()
				continue
			}
			if received == launched {
				// Every launched worker failed this evaluation, each after
				// its own retries: a configured fallback serves it. Without
				// one the failure stays transient (the engine refunds it)
				// until every breaker is open, and then the fleet is down.
				if (f.fallback != nil && ctx.Err() == nil) || len(f.healthyOrder()) == 0 {
					return f.degrade(ctx, d, attempts)
				}
				last.Attempts = attempts
				return last
			}
		case <-hedge:
			hedge = nil
			if launched < len(order) {
				f.count(func() { f.hedges++ })
				launch()
			}
		case <-ctx.Done():
			return pipeline.ScoreResult{
				Score:     math.NaN(),
				Err:       fmt.Errorf("remote: abandoned: %w", pipeline.ContextFailure(ctx)),
				Transient: true,
				Attempts:  attempts,
			}
		}
	}
}

// degrade serves an evaluation when no worker is healthy: through the
// fallback scorer if configured, otherwise as the fleet-down fatal error.
func (f *FleetSystem) degrade(ctx context.Context, d *dataset.Dataset, attempts int) pipeline.ScoreResult {
	if f.fallback != nil {
		f.count(func() { f.fallbackEvals++ })
		r := f.fallback.TryMalfunctionScore(ctx, d)
		r.Attempts += attempts
		return r
	}
	return pipeline.ScoreResult{Score: math.NaN(), Err: ErrFleetDown, Attempts: attempts}
}

// takeFrame returns a free request frame, or nil when there is none.
func (f *FleetSystem) takeFrame() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.frames)
	if n == 0 {
		return nil
	}
	frame := f.frames[n-1]
	f.frames = f.frames[:n-1]
	return frame
}

// putFrame hands back a request frame no dispatch reads any more.
func (f *FleetSystem) putFrame(frame []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frames = append(f.frames, frame)
}

func (f *FleetSystem) count(update func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	update()
}

// FleetSnapshot implements pipeline.FleetReporter.
func (f *FleetSystem) FleetSnapshot() pipeline.FleetStats {
	healthy := 0
	for _, w := range f.workers {
		if !w.breaker.Open() {
			healthy++
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return pipeline.FleetStats{
		Workers:       len(f.workers),
		Healthy:       healthy,
		Dispatched:    f.dispatched,
		Hedges:        f.hedges,
		Failovers:     f.failovers,
		WorkerFaults:  f.workerFaults,
		FallbackEvals: f.fallbackEvals,
	}
}

// BreakerTrips implements pipeline.TripCounter: total circuit openings
// across the fleet.
func (f *FleetSystem) BreakerTrips() int {
	trips := 0
	for _, w := range f.workers {
		trips += w.breaker.BreakerTrips()
	}
	return trips
}

// WorkerDiagnostics snapshots per-worker health and recent failures,
// newest first, for reports and exit diagnostics.
func (f *FleetSystem) WorkerDiagnostics() []WorkerDiag {
	out := make([]WorkerDiag, 0, len(f.workers))
	for _, w := range f.workers {
		out = append(out, WorkerDiag{
			Addr:           w.addr,
			Healthy:        !w.breaker.Open(),
			BreakerTrips:   w.breaker.BreakerTrips(),
			RecentFailures: w.failures.Recent(pipeline.FailureRingSize),
		})
	}
	return out
}
