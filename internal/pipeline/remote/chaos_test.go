package remote_test

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/pipeline/remote"
	"repro/internal/synth"
)

// startFleetWorkers serves the scenario's scorer on n loopback workers and
// returns their addresses.
func startFleetWorkers(t testing.TB, sys pipeline.System, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			w := &remote.Worker{System: pipeline.AsFallible(pipeline.AsContext(sys))}
			w.Serve(ctx, ln)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
	}
	return addrs
}

// TestRemoteChaosMatchesInProcessFaultFree is the distributed acceptance
// bar: a search evaluated over a real TCP worker fleet — under
// deterministic network-fault injection (drops, timeouts, partial writes,
// worker crashes; K ≤ 2 faults per distinct dataset) — must return
// byte-identical explanations, scores, intervention counts, and traces to
// the plain in-process fault-free run, for fleets of 1 and 8 workers
// alike.
func TestRemoteChaosMatchesInProcessFaultFree(t *testing.T) {
	type runner func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error)
	algos := map[string]runner{
		"GRD": func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
			return e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		},
		"GT": func(e *core.Explainer, sc *synth.Scenario) (*core.Result, error) {
			return e.ExplainGroupTestPVTsContext(context.Background(), sc.PVTs, sc.Fail)
		},
	}
	seed := int64(1)
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
	for name, run := range algos {
		clean := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Workers: 1}
		want, wantErr := run(clean, sc)
		if wantErr != nil {
			t.Fatalf("%s: fault-free run failed: %v", name, wantErr)
		}
		for _, fleetN := range []int{1, 8} {
			for _, failFirst := range []int{1, 2} {
				inj := &remote.NetFaultInjector{FailFirst: failFirst}
				fleet := remote.NewFleet(remote.Config{
					Addrs:          startFleetWorkers(t, sc.System, fleetN),
					SystemName:     sc.System.Name(),
					Dial:           inj.DialContext,
					RetryMax:       failFirst + 1,
					RetryBaseDelay: 50 * time.Microsecond,
				})
				e := &core.Explainer{FallibleSystem: fleet, Tau: 0.05, Seed: seed, Workers: fleetN}
				got, err := run(e, sc)
				fleet.Close()
				if err != nil {
					t.Fatalf("%s fleet=%d K=%d: %v", name, fleetN, failFirst, err)
				}
				if got.ExplanationString() != want.ExplanationString() {
					t.Errorf("%s fleet=%d K=%d: explanation %s, fault-free %s",
						name, fleetN, failFirst, got.ExplanationString(), want.ExplanationString())
				}
				if got.InitialScore != want.InitialScore || got.FinalScore != want.FinalScore {
					t.Errorf("%s fleet=%d K=%d: scores (%v,%v) vs (%v,%v)",
						name, fleetN, failFirst, got.InitialScore, got.FinalScore, want.InitialScore, want.FinalScore)
				}
				if got.Interventions != want.Interventions {
					t.Errorf("%s fleet=%d K=%d: interventions %d, fault-free %d — injected faults must not count",
						name, fleetN, failFirst, got.Interventions, want.Interventions)
				}
				if len(got.Trace) != len(want.Trace) {
					t.Errorf("%s fleet=%d K=%d: trace length %d vs %d",
						name, fleetN, failFirst, len(got.Trace), len(want.Trace))
				}
				for i := range got.Trace {
					if got.Trace[i].Score != want.Trace[i].Score || got.Trace[i].Accepted != want.Trace[i].Accepted {
						t.Errorf("%s fleet=%d K=%d: trace[%d] = %+v, fault-free %+v",
							name, fleetN, failFirst, i, got.Trace[i], want.Trace[i])
						break
					}
				}
				if got.Stats.TransientFailures != 0 {
					t.Errorf("%s fleet=%d K=%d: %d transient failures leaked past the worker retries",
						name, fleetN, failFirst, got.Stats.TransientFailures)
				}
				if inj.Injected() == 0 {
					t.Errorf("%s fleet=%d K=%d: injector idle — chaos exercised nothing",
						name, fleetN, failFirst)
				}
				if got.Stats.Fleet.Dispatched == 0 {
					t.Errorf("%s fleet=%d K=%d: fleet stats absent from the result: %+v",
						name, fleetN, failFirst, got.Stats.Fleet)
				}
			}
		}
	}
}

// TestRemoteChaosWithHedgingStaysDeterministic: hedged dispatch launches
// speculative duplicates whose arrival order is scheduler-dependent — but
// since every worker computes the same pure score, the search outcome must
// not move.
func TestRemoteChaosWithHedgingStaysDeterministic(t *testing.T) {
	seed := int64(2)
	sc := synth.New(synth.Options{NumPVTs: 16, NumAttrs: 6, Conjunction: 2, CauseTopBenefit: true, Seed: seed})
	clean := &core.Explainer{System: sc.System, Tau: 0.05, Seed: seed, Workers: 1}
	want, err := clean.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	inj := &remote.NetFaultInjector{FailFirst: 2}
	fleet := remote.NewFleet(remote.Config{
		Addrs:          startFleetWorkers(t, sc.System, 4),
		SystemName:     sc.System.Name(),
		Dial:           inj.DialContext,
		RetryMax:       3,
		RetryBaseDelay: 50 * time.Microsecond,
		HedgeAfter:     time.Millisecond,
	})
	defer fleet.Close()
	e := &core.Explainer{FallibleSystem: fleet, Tau: 0.05, Seed: seed, Workers: 4}
	got, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExplanationString() != want.ExplanationString() ||
		got.FinalScore != want.FinalScore || got.Interventions != want.Interventions {
		t.Fatalf("hedged chaos diverged: %s/%v/%d vs %s/%v/%d",
			got.ExplanationString(), got.FinalScore, got.Interventions,
			want.ExplanationString(), want.FinalScore, want.Interventions)
	}
}

// TestRemoteFleetStatsReachEngine: the FleetReporter capability must
// surface fleet counters through engine.Stats even when the fleet sits
// under an extra Retry/Breaker wrapper.
func TestRemoteFleetStatsReachEngine(t *testing.T) {
	seed := int64(0)
	sc := synth.New(synth.Options{NumPVTs: 8, NumAttrs: 4, Conjunction: 1, CauseTopBenefit: true, Seed: seed})
	fleet := remote.NewFleet(remote.Config{
		Addrs:      startFleetWorkers(t, sc.System, 2),
		SystemName: sc.System.Name(),
	})
	defer fleet.Close()
	wrapped := &pipeline.Retry{System: fleet, Max: 2, BaseDelay: time.Millisecond}
	e := &core.Explainer{FallibleSystem: wrapped, Tau: 0.05, Seed: seed, Workers: 2}
	res, err := e.ExplainGreedyPVTsContext(context.Background(), sc.PVTs, sc.Fail)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Fleet.Workers != 2 || res.Stats.Fleet.Dispatched == 0 {
		t.Fatalf("fleet stats did not reach the engine through the wrapper: %+v", res.Stats.Fleet)
	}
	if res.Stats.Fleet.Healthy != 2 {
		t.Fatalf("healthy = %d, want 2 (no faults in this run)", res.Stats.Fleet.Healthy)
	}
}
