package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

// servingServer builds a server on the I7 for the serving tests with a
// recorder attached; cfg mutates the defaults.
func servingServer(t *testing.T, st *store.Store, cfg func(*InferenceServerOptions)) (*InferenceServer, *counters.Resilience) {
	t.Helper()
	w := workload.MustNew("IC", 1)
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	rec := counters.NewResilienceOn(nil)
	opts := InferenceServerOptions{
		Device:   dev,
		Space:    space,
		Metric:   MetricRuntime,
		Trials:   6,
		Workers:  1,
		Store:    st,
		Seed:     7,
		Recorder: rec,
	}
	if cfg != nil {
		cfg(&opts)
	}
	srv, err := NewInferenceServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, rec
}

func sigRequest(i int) InferRequest {
	return InferRequest{
		Signature:      fmt.Sprintf("IC/layers=%d", 18+i),
		FLOPsPerSample: 5.6e8,
		Params:         11e6,
		Client:         "test-client",
	}
}

func mustOutcome(t *testing.T, ch <-chan InferOutcome) InferOutcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("no outcome delivered")
		return InferOutcome{}
	}
}

// TestAdmissionShedsAtLimit: with the intake held, submissions beyond
// QueueLimit are shed immediately with ErrOverloaded; the admitted ones
// complete once the queue is released.
func TestAdmissionShedsAtLimit(t *testing.T) {
	srv, rec := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.QueueLimit = 3
	})
	srv.adm.setHold(true)
	chs := make([]<-chan InferOutcome, 0, 5)
	for i := 0; i < 5; i++ {
		chs = append(chs, srv.Submit(context.Background(), sigRequest(i)))
	}
	if got := srv.adm.inSystem(); got != 3 {
		t.Errorf("in-system = %d, want exactly QueueLimit", got)
	}
	for i := 3; i < 5; i++ {
		out := mustOutcome(t, chs[i])
		if !errors.Is(out.Err, ErrOverloaded) {
			t.Errorf("submission %d: err = %v, want ErrOverloaded", i, out.Err)
		}
	}
	if got := rec.Snapshot().Shed; got != 2 {
		t.Errorf("shed counter = %d, want 2", got)
	}
	srv.adm.setHold(false)
	for i := 0; i < 3; i++ {
		if out := mustOutcome(t, chs[i]); out.Err != nil {
			t.Errorf("admitted submission %d failed: %v", i, out.Err)
		}
	}
}

// TestDrainCompletesInflight: a graceful drain finishes accepted work,
// flushes the write-behind buffer, and then rejects new submissions
// with the typed error.
func TestDrainCompletesInflight(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 2)
	st := store.New()
	srv, _ := servingServer(t, st, nil)
	a := srv.Submit(context.Background(), sigRequest(0))
	b := srv.Submit(context.Background(), sigRequest(1))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	if out := mustOutcome(t, a); out.Err != nil {
		t.Errorf("in-flight request failed during drain: %v", out.Err)
	}
	if out := mustOutcome(t, b); out.Err != nil {
		t.Errorf("queued request failed during drain: %v", out.Err)
	}
	if got := srv.PendingWrites(); got != 0 {
		t.Errorf("%d store writes still pending after drain", got)
	}
	if st.Len() != 2 {
		t.Errorf("store has %d entries after drain, want 2", st.Len())
	}
	if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(2))); !errors.Is(out.Err, ErrServerClosed) {
		t.Errorf("submit after drain err = %v, want ErrServerClosed", out.Err)
	}
}

// TestDrainDeadlineEvicts: when the drain deadline expires, in-flight
// work is cancelled and queued work evicted — every caller still gets
// a typed outcome.
func TestDrainDeadlineEvicts(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 2)
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Trials = 2_000_000 // hold the single worker
	})
	inflight := srv.Submit(context.Background(), sigRequest(0))
	queued := srv.Submit(context.Background(), sigRequest(1))
	time.Sleep(50 * time.Millisecond) // let the worker start tuning

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired drain returned %v, want deadline error", err)
	}
	if out := mustOutcome(t, inflight); out.Err == nil {
		t.Error("cancelled in-flight request reported success")
	}
	if out := mustOutcome(t, queued); !errors.Is(out.Err, ErrServerClosed) {
		t.Errorf("evicted queued request err = %v, want ErrServerClosed", out.Err)
	}
}

// TestDrainExpiredContext: a Drain whose context expired before the
// call must still run the deadline-eviction path — every queued caller
// receives a typed outcome rather than hanging — and Close stays
// idempotent afterwards.
func TestDrainExpiredContext(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 2)
	srv, _ := servingServer(t, store.New(), nil)
	srv.adm.setHold(true) // keep both submissions queued
	a := srv.Submit(context.Background(), sigRequest(0))
	b := srv.Submit(context.Background(), sigRequest(1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the drain even starts
	if err := srv.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired drain returned %v, want context.Canceled", err)
	}
	for i, ch := range []<-chan InferOutcome{a, b} {
		if out := mustOutcome(t, ch); !errors.Is(out.Err, ErrServerClosed) {
			t.Errorf("queued request %d err = %v, want ErrServerClosed", i, out.Err)
		}
	}
	if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(2))); !errors.Is(out.Err, ErrServerClosed) {
		t.Errorf("submit after expired drain err = %v, want ErrServerClosed", out.Err)
	}
	srv.Close()
	srv.Close() // idempotent after a drain, including repeated calls
}

// TestNoHealthyDeviceTyped: with the only device's breaker open, Submit
// fails fast with an error classified like the old single-device
// breaker rejection.
func TestNoHealthyDeviceTyped(t *testing.T) {
	inj, err := fault.NewInjector(fault.Config{DeviceFlap: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Fault = inj
		o.MaxAttempts = 1
	})
	for i := 0; i < breakerThreshold; i++ {
		if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(i))); out.Err == nil {
			t.Fatal("permanently flapping device served a request")
		}
	}
	out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(breakerThreshold)))
	if !errors.Is(out.Err, ErrNoHealthyDevice) || !errors.Is(out.Err, ErrCircuitOpen) {
		t.Errorf("err = %v, want ErrNoHealthyDevice wrapping ErrCircuitOpen", out.Err)
	}
	if !transientInferError(out.Err) {
		t.Error("pool exhaustion not classified transient")
	}
}

// slowSuccesses feeds g n successes ten times slower than the
// performance model expects: each scores 0.1.
func slowSuccesses(g *deviceGate, n int) {
	for i := 0; i < n; i++ {
		g.observe(route{}, nil, 10*time.Second, time.Second, 0)
	}
}

// TestPoolQuarantineAndRecovery drives the health state machine of the
// server's one device: chronic slowness quarantines it with its breaker
// still closed; while it is quarantined exactly every probeEvery-th pick
// is a recovery probe and every other pick ends ErrNoHealthyDevice; a
// failed probe keeps it quarantined, a clean one moves it to probation,
// and sustained clean results walk it back to healthy.
func TestPoolQuarantineAndRecovery(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	g := newDeviceGate(device.I7(), rec, nil)
	// Score 1 -> 0.73 -> 0.541 -> 0.409 -> 0.316, under the 0.35
	// quarantine threshold.
	slowSuccesses(g, 4)
	if st, score, _ := g.snapshot(); st != deviceQuarantined {
		t.Fatalf("after 4 slow successes: state = %v (score %.3f), want quarantined", st, score)
	}
	if got := rec.Snapshot().Quarantines; got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}

	// Two failed probes, then a clean one. Two failures stay under the
	// breaker's threshold of 3, so it never rejects a probe.
	boom := errors.New("boom")
	const rounds = 3
	for round := 1; round <= rounds; round++ {
		var probe route
		for i := 1; i <= probeEvery; i++ {
			rt, err := g.pick(0)
			if i < probeEvery {
				if !errors.Is(err, ErrNoHealthyDevice) {
					t.Fatalf("round %d, pick %d: (%+v, %v), want ErrNoHealthyDevice", round, i, rt, err)
				}
				continue
			}
			if err != nil || !rt.qProbe {
				t.Fatalf("round %d, pick %d: (%+v, %v), want a quarantine probe", round, i, rt, err)
			}
			probe = rt
		}
		if round < rounds {
			g.observe(probe, boom, 0, 0, 0)
			if st, _, _ := g.snapshot(); st != deviceQuarantined {
				t.Fatalf("after failed probe %d: state = %v, want quarantined", round, st)
			}
			continue
		}
		g.observe(probe, nil, 0, 0, 0)
	}
	if got := rec.Snapshot().Probes; got != rounds {
		t.Errorf("probe counter = %d, want %d", got, rounds)
	}
	if st, _, _ := g.snapshot(); st != deviceProbation {
		t.Fatalf("after clean probe: state = %v, want probation", st)
	}

	// Probation admits every pick; clean traffic restores full health
	// at the 0.75 threshold.
	for i := 0; i < 10; i++ {
		rt, err := g.pick(0)
		if err != nil || rt.qProbe {
			t.Fatalf("probation pick %d: (%+v, %v), want a plain admission", i, rt, err)
		}
		g.observe(rt, nil, 0, 0, 0)
	}
	if st, score, _ := g.snapshot(); st != deviceHealthy || score < recoverAbove {
		t.Errorf("after sustained successes: state = %v score = %.3f, want healthy", st, score)
	}
}

// TestQuarantineProbeThroughOpenBreaker: hard failures quarantine the
// device and open its breaker together. The probeEvery-th pick is
// offered to the breaker, whose open state spends a rejection slot on
// it; the next offer spends the last of its cooldown of 2, half-opens it
// and is the probe. Every pick in between ends ErrNoHealthyDevice
// without consulting the breaker — one that did would half-open it
// early and deny the probe.
func TestQuarantineProbeThroughOpenBreaker(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	g := newDeviceGate(device.I7(), rec, nil)
	boom := errors.New("boom")
	// Score 1 -> 0.7 -> 0.49 -> 0.343; the breaker trips at 3.
	for i := 0; i < 3; i++ {
		g.observe(route{}, boom, 0, 0, 0)
	}
	if st, _, br := g.snapshot(); st != deviceQuarantined || br != breakerOpen {
		t.Fatalf("after 3 failures: %v with breaker %v, want quarantined with breaker open", st, br)
	}
	for i := 1; i <= 2*probeEvery; i++ {
		rt, err := g.pick(0)
		if i < 2*probeEvery {
			if !errors.Is(err, ErrNoHealthyDevice) {
				t.Fatalf("pick %d: (%+v, %v), want ErrNoHealthyDevice", i, rt, err)
			}
			continue
		}
		if err != nil || !rt.qProbe || !rt.brProbe {
			t.Fatalf("pick %d: (%+v, %v), want a quarantine probe on the breaker's half-open slot", i, rt, err)
		}
	}
	if _, _, br := g.snapshot(); br != breakerHalfOpen {
		t.Errorf("breaker %v after the probe, want half-open", br)
	}
	if got := rec.Snapshot().Probes; got != 1 {
		t.Errorf("probe counter = %d, want 1", got)
	}
}

// TestOneQuarantineProbeInFlight: a request picked while the device was
// healthy and finishing after the quarantine probe went out must not
// free the probe's slot, or the next probeEvery-th pick would send a
// second probe while the first is still in flight.
func TestOneQuarantineProbeInFlight(t *testing.T) {
	g := newDeviceGate(device.I7(), counters.NewResilienceOn(nil), nil)
	early, err := g.pick(0) // pick 1, healthy
	if err != nil {
		t.Fatal(err)
	}
	slowSuccesses(g, 4) // quarantined, breaker closed
	var probe route
	for i := 2; i <= probeEvery; i++ {
		rt, err := g.pick(0)
		if i < probeEvery {
			if !errors.Is(err, ErrNoHealthyDevice) {
				t.Fatalf("pick %d: (%+v, %v), want ErrNoHealthyDevice", i, rt, err)
			}
			continue
		}
		if err != nil || !rt.qProbe {
			t.Fatalf("pick %d: (%+v, %v), want a quarantine probe", i, rt, err)
		}
		probe = rt
	}
	g.observe(early, nil, 0, 0, 0)
	for i := probeEvery + 1; i <= 2*probeEvery; i++ {
		if rt, err := g.pick(0); !errors.Is(err, ErrNoHealthyDevice) {
			t.Fatalf("pick %d: (%+v, %v), want ErrNoHealthyDevice while the probe is in flight", i, rt, err)
		}
	}
	// The probe's own result frees the slot.
	g.observe(probe, errors.New("boom"), 0, 0, 0)
	for i := 2*probeEvery + 1; i <= 3*probeEvery; i++ {
		rt, err := g.pick(0)
		if want := i == 3*probeEvery; (err == nil && rt.qProbe) != want {
			t.Fatalf("pick %d: (%+v, %v), want probe %v", i, rt, err, want)
		}
	}
}

// TestStaleFailureLeavesTheBreakerProbe: a request picked while the
// device was healthy and failing after the breaker opened and
// half-opened is not the probe's verdict. It must neither re-open the
// breaker with its cooldown doubled nor free the slot while the probe is
// still in flight.
func TestStaleFailureLeavesTheBreakerProbe(t *testing.T) {
	g := newDeviceGate(device.I7(), counters.NewResilienceOn(nil), nil)
	early, err := g.pick(0) // pick 1: healthy, breaker closed
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		g.observe(route{}, boom, 0, 0, 0) // quarantined, breaker open
	}
	var probe route
	for i := 2; i <= 2*probeEvery; i++ {
		rt, err := g.pick(0)
		if i == 2*probeEvery {
			if err != nil || !rt.brProbe {
				t.Fatalf("pick %d: (%+v, %v), want the breaker's probe", i, rt, err)
			}
			probe = rt
		}
	}
	g.observe(early, boom, 0, 0, 0)
	if g.br.state != breakerHalfOpen || g.br.cooldown != breakerCooldown || !g.br.probing {
		t.Fatalf("after the stale failure: breaker %v, cooldown %d, probing %v; want half-open, %d, true",
			g.br.state, g.br.cooldown, g.br.probing, breakerCooldown)
	}
	g.observe(probe, nil, 0, 0, 0)
	if st, _, br := g.snapshot(); br != breakerClosed || st != deviceProbation {
		t.Errorf("after the probe's success: %v with breaker %v, want probation with breaker closed", st, br)
	}
}

// TestPoolSlowSuccessesQuarantine: a device that keeps succeeding far
// slower than the performance model expects (a brown-out) is
// quarantined even though its breaker never trips.
func TestPoolSlowSuccessesQuarantine(t *testing.T) {
	g := newDeviceGate(device.I7(), counters.NewResilienceOn(nil), nil)
	slowSuccesses(g, 8)
	if g.health != deviceQuarantined {
		t.Errorf("state = %v (score %.3f), want quarantined on chronic slowness", g.health, g.score)
	}
	if g.br.state != breakerClosed {
		t.Error("breaker tripped on successes")
	}
}

// TestFaultSitesNamedOnlyForAnInjector pins both halves of the
// fault-site contract. An injector with every probability zero still
// sees each per-submission decision point by name — the chaos fuzzer's
// discovery pass enumerates the failure space that way. And with no
// injector at all the names are not built: a cache hit then allocates
// strictly less.
func TestFaultSitesNamedOnlyForAnInjector(t *testing.T) {
	seen := map[string]bool{}
	inj, err := fault.NewInjector(fault.Config{Observe: func(c fault.Class, site string, _ int, _ bool) {
		seen[string(c)+" "+site] = true
	}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hitAllocs := func(inj *fault.Injector) float64 {
		srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) { o.Fault = inj })
		if out := mustOutcome(t, srv.Submit(ctx, sigRequest(0))); out.Err != nil { // submission 0: the miss
			t.Fatal(out.Err)
		}
		return testing.AllocsPerRun(200, func() {
			if out := <-srv.Submit(ctx, sigRequest(0)); !out.Cached {
				t.Fatalf("repeat not served from the store: %+v", out)
			}
		})
	}
	withInj, without := hitAllocs(inj), hitAllocs(nil)

	dev := device.I7().Profile.Name
	for _, want := range []string{
		string(fault.OverloadBurst) + " admit/test-client#0",
		string(fault.DeviceFlap) + " " + dev + "/IC/layers=18",
		string(fault.DeviceBrownout) + " " + dev + "/IC/layers=18",
		string(fault.DroppedReply) + " IC/layers=18#1",
	} {
		if !seen[want] {
			t.Errorf("zero-probability injector never consulted %q; saw %v", want, seen)
		}
	}
	if without >= withInj {
		t.Errorf("a cache hit allocates %.0f times without an injector, %.0f with one: site names are still built for nobody", without, withInj)
	}
}
