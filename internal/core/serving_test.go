package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

// i7Twin returns a second I7 ("i7-b"): an identical replica board, the
// simplest healthy hedge target since it shares the search space.
func i7Twin() device.Device {
	d := device.I7()
	d.Profile.Name = "i7-b"
	return d
}

// servingServer builds a server for the overload/hedging tests with a
// recorder attached; cfg mutates the defaults.
func servingServer(t *testing.T, st *store.Store, cfg func(*InferenceServerOptions)) (*InferenceServer, *counters.Resilience) {
	t.Helper()
	w := workload.MustNew("IC", 1)
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	rec := counters.NewResilience()
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
		if errors.Is(out.Err, ErrRateLimited) {
			t.Errorf("submission %d misreported as rate-limited", i)
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

// TestCriticalPreemptsBackground: a critical submission arriving at a
// full queue evicts the most recent background job instead of being
// shed.
func TestCriticalPreemptsBackground(t *testing.T) {
	srv, rec := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.QueueLimit = 2
	})
	srv.adm.setHold(true)
	bg := make([]<-chan InferOutcome, 2)
	for i := range bg {
		req := sigRequest(i)
		req.Priority = PriorityBackground
		bg[i] = srv.Submit(context.Background(), req)
	}
	crit := srv.Submit(context.Background(), sigRequest(2))

	out := mustOutcome(t, bg[1])
	if !errors.Is(out.Err, ErrOverloaded) {
		t.Errorf("preempted job err = %v, want ErrOverloaded", out.Err)
	}
	if got := rec.Snapshot().Preempted; got != 1 {
		t.Errorf("preempted counter = %d, want 1", got)
	}

	// A second background submission is shed outright: critical work
	// holds both slots' worth of capacity.
	req := sigRequest(3)
	req.Priority = PriorityBackground
	if out := mustOutcome(t, srv.Submit(context.Background(), req)); !errors.Is(out.Err, ErrOverloaded) {
		t.Errorf("background overflow err = %v, want ErrOverloaded", out.Err)
	}

	srv.adm.setHold(false)
	if out := mustOutcome(t, bg[0]); out.Err != nil {
		t.Errorf("surviving background job failed: %v", out.Err)
	}
	if out := mustOutcome(t, crit); out.Err != nil {
		t.Errorf("critical job failed: %v", out.Err)
	}
}

// TestRateLimitPerClient: the deterministic token bucket rejects a
// client that bursts past its allowance, without touching other
// clients.
func TestRateLimitPerClient(t *testing.T) {
	srv, rec := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.QueueLimit = 10
		o.RateLimit = 0.25
		o.RateBurst = 2
	})
	srv.adm.setHold(true)
	chs := make([]<-chan InferOutcome, 0, 4)
	for i := 0; i < 4; i++ {
		chs = append(chs, srv.Submit(context.Background(), sigRequest(i)))
	}
	// Burst 2 with refill 0.25/tick: submissions 3 and 4 find a dry
	// bucket.
	for i := 2; i < 4; i++ {
		out := mustOutcome(t, chs[i])
		if !errors.Is(out.Err, ErrRateLimited) || !errors.Is(out.Err, ErrOverloaded) {
			t.Errorf("submission %d: err = %v, want ErrRateLimited (wrapping ErrOverloaded)", i, out.Err)
		}
	}
	if got := rec.Snapshot().RateLimited; got != 2 {
		t.Errorf("rate-limited counter = %d, want 2", got)
	}
	// A different client starts with a full bucket.
	other := sigRequest(9)
	other.Client = "other-client"
	otherCh := srv.Submit(context.Background(), other)
	srv.adm.setHold(false)
	for _, ch := range []<-chan InferOutcome{chs[0], chs[1], otherCh} {
		if out := mustOutcome(t, ch); out.Err != nil {
			t.Errorf("admitted submission failed: %v", out.Err)
		}
	}
}

// TestRateLimitTenantInstruments: rate-limit rejections surface as
// per-tenant labeled counters and as errors on the standing
// serving/tenant-rejections objective, attributed to the bursting
// client only.
func TestRateLimitTenantInstruments(t *testing.T) {
	ev := slo.NewEvaluator()
	srv, rec := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.QueueLimit = 10
		o.RateLimit = 0.25
		o.RateBurst = 2
		o.SLO = ev
	})
	srv.adm.setHold(true)
	chs := make([]<-chan InferOutcome, 0, 5)
	for i := 0; i < 4; i++ {
		chs = append(chs, srv.Submit(context.Background(), sigRequest(i)))
	}
	other := sigRequest(9)
	other.Client = "other-client"
	chs = append(chs, srv.Submit(context.Background(), other))
	srv.adm.setHold(false)
	for _, ch := range chs {
		mustOutcome(t, ch)
	}

	got := map[string]int64{}
	for _, c := range rec.Registry().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "serving.rate-limited.tenant.") {
			got[strings.TrimPrefix(c.Name, "serving.rate-limited.tenant.")] = c.Value
		}
	}
	if got["test-client"] != 2 || got["other-client"] != 0 {
		t.Errorf("per-tenant rate-limited counters = %v, want test-client=2 and no other-client", got)
	}

	obj, ok := ev.Snapshot().Objective("serving/tenant-rejections")
	if !ok {
		t.Fatal("serving/tenant-rejections objective not registered")
	}
	if obj.Errors != 2 || obj.Events != 5 {
		t.Errorf("tenant-rejections objective = %d errors / %d events, want 2/5", obj.Errors, obj.Events)
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
	if got := srv.writes.Pending(); got != 0 {
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

// TestHedgeOnBrownout: with a browned-out primary, the server issues a
// deterministic hedge to the twin device and the request still
// succeeds.
func TestHedgeOnBrownout(t *testing.T) {
	run := func(disable bool) (InferOutcome, counters.ResilienceSnapshot) {
		inj, err := fault.NewInjector(fault.Config{DeviceBrownout: 1, BrownoutFactor: 8}, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, rec := servingServer(t, store.New(), func(o *InferenceServerOptions) {
			o.Pool = []device.Device{device.I7(), i7Twin()}
			o.Fault = inj
			o.HedgeFactor = 1.1
		})
		srv.noHedging = disable
		out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(0)))
		return out, rec.Snapshot()
	}

	out, snap := run(false)
	if out.Err != nil {
		t.Fatalf("browned-out request failed: %v", out.Err)
	}
	if !out.Hedged || snap.Hedges != 1 {
		t.Errorf("hedged = %v, hedges = %d; want a hedge on a >1.1x brown-out", out.Hedged, snap.Hedges)
	}
	out2, snap2 := run(false)
	if out2.Latency != out.Latency || snap2.Hedges != snap.Hedges || snap2.HedgeWins != snap.HedgeWins {
		t.Errorf("same-seed hedging diverged: %v/%+v vs %v/%+v", out.Latency, snap, out2.Latency, snap2)
	}

	plain, psnap := run(true)
	if plain.Err != nil {
		t.Fatalf("unhedged request failed: %v", plain.Err)
	}
	if plain.Hedged || psnap.Hedges != 0 {
		t.Errorf("noHedging still hedged: %v / %d", plain.Hedged, psnap.Hedges)
	}
	if out.Latency > plain.Latency {
		t.Errorf("hedged latency %v exceeds unhedged %v", out.Latency, plain.Latency)
	}
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

// TestPoolQuarantineAndRecovery drives the health state machine
// directly: repeated failures quarantine a device, the periodic probe
// reaches it, and sustained clean results walk it back through
// probation to healthy.
func TestPoolQuarantineAndRecovery(t *testing.T) {
	rec := counters.NewResilience()
	pool := newDevicePool([]device.Device{device.I7(), i7Twin()}, 3, 2, rec)
	sick := pool.devs[0]
	boom := errors.New("boom")

	// Three failures: score 1 -> 0.7 -> 0.49 -> 0.343, under the 0.35
	// quarantine threshold (and the breaker trips at its threshold 3).
	for i := 0; i < 3; i++ {
		pool.observe(route{pd: sick}, boom, 0, 0, 0)
	}
	if st, score := pool.stateOf("i7"); st != deviceQuarantined {
		t.Fatalf("after 3 failures: state = %d (score %.3f), want quarantined", st, score)
	}
	if got := rec.Snapshot().Quarantines; got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}

	// Routing avoids the quarantined device...
	for i := 1; i <= 3; i++ {
		rt, err := pool.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		if rt.pd.name != "i7-b" {
			t.Fatalf("pick %d routed to quarantined device", i)
		}
		pool.observe(rt, nil, 0, 0, 0)
	}
	// ...until the periodic probe; the breaker (open, cooldown 2) eats
	// the first probe attempts, then half-opens and admits one.
	var probe route
	for i := 0; i < 3*probeEvery && probe.pd == nil; i++ {
		rt, err := pool.pick(0)
		if err != nil {
			t.Fatal(err)
		}
		if rt.qProbe {
			probe = rt
		} else {
			pool.observe(rt, nil, 0, 0, 0)
		}
	}
	if probe.pd == nil || probe.pd.name != "i7" {
		t.Fatal("quarantined device never probed")
	}
	if rec.Snapshot().Probes == 0 {
		t.Error("probe counter not incremented")
	}

	// A clean probe moves it to probation; clean traffic then restores
	// full health at the 0.75 threshold.
	pool.observe(probe, nil, 0, 0, 0)
	if st, _ := pool.stateOf("i7"); st != deviceProbation {
		t.Fatalf("after clean probe: state = %d, want probation", st)
	}
	for i := 0; i < 10; i++ {
		pool.observe(route{pd: sick}, nil, 0, 0, 0)
	}
	if st, score := pool.stateOf("i7"); st != deviceHealthy || score < recoverAbove {
		t.Errorf("after sustained successes: state = %d score = %.3f, want healthy", st, score)
	}
}

// TestPoolSlowSuccessesQuarantine: a device that keeps succeeding far
// slower than the performance model expects (a brown-out) is
// quarantined even though its breaker never trips.
func TestPoolSlowSuccessesQuarantine(t *testing.T) {
	rec := counters.NewResilience()
	pool := newDevicePool([]device.Device{device.I7(), i7Twin()}, 3, 2, rec)
	slow := pool.devs[0]
	// Ten-fold slowdown: each observation scores 0.1.
	for i := 0; i < 8; i++ {
		pool.observe(route{pd: slow}, nil, 10*time.Second, time.Second, 0)
	}
	if st, score := pool.stateOf("i7"); st != deviceQuarantined {
		t.Errorf("state = %d (score %.3f), want quarantined on chronic slowness", st, score)
	}
	if pool.breakerOf("i7").snapshotState() != breakerClosed {
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

// flusherGoroutines counts the write-behind flusher goroutines alive in
// the process — all package core can see of which buffer a server built
// — by who started them: one that has not run yet has no frame of its own.
func flusherGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return bytes.Count(buf[:n], []byte("created by edgetune/internal/store.NewWriteBehind "))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestWriteModeFollowsPlan: nothing sets the server's write mode — an
// injector armed with a fault plan, even an empty one, selects the
// inline mode (no flusher goroutine, and a result is in the store by the
// time its request is answered), and every other server keeps the
// background flusher.
func TestWriteModeFollowsPlan(t *testing.T) {
	plan, err := fault.NewPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	planned, err := fault.NewInjector(fault.Config{Plan: plan}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	unplanned, err := fault.NewInjector(fault.Config{DeviceBrownout: 0.1}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		inj      *fault.Injector
		flushers int
	}{
		{"empty plan", planned, 0},
		{"no injector", nil, 1},
		{"injector without a plan", unplanned, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := flusherGoroutines()
			srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) { o.Fault = tc.inj })
			if got := flusherGoroutines() - before; got != tc.flushers {
				t.Fatalf("constructing the server started %d flusher goroutines, want %d", got, tc.flushers)
			}
			if tc.flushers > 0 {
				return
			}
			for i := 0; i < 200; i++ {
				if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(i))); out.Err != nil || out.Cached {
					t.Fatalf("request %d: %+v, want a served miss", i, out)
				}
				if n := srv.PendingWrites(); n != 0 {
					t.Fatalf("%d writes pending when miss %d was answered: not flushed inline", n, i)
				}
			}
		})
	}
}
