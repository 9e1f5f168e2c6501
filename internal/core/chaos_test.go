package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
)

// chaosOptions is smallOptions with one fault class dialled up.
func chaosOptions(cfg fault.Config) Options {
	opts := smallOptions("IC")
	opts.Fault = cfg
	return opts
}

// TestTuneUnderEachFaultClass drives the full tuning loop with each
// fault class at a substantial rate: the job must still return a
// recommendation, record the injected faults, and be deterministic
// across identical runs.
func TestTuneUnderEachFaultClass(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	cases := []struct {
		name  string
		class fault.Class
		cfg   fault.Config
	}{
		{"trial-crash", fault.TrialCrash, fault.Config{TrialCrash: 0.15}},
		{"trial-nan", fault.TrialNaN, fault.Config{TrialNaN: 0.15}},
		{"straggler", fault.Straggler, fault.Config{Straggler: 0.25, StragglerFactor: 3}},
		// The small job tunes few unique architectures, so per-request
		// classes need a high rate to fire reliably.
		{"device-flap", fault.DeviceFlap, fault.Config{DeviceFlap: 0.5}},
		{"store-write", fault.StoreWrite, fault.Config{StoreWrite: 0.2}},
		{"dropped-reply", fault.DroppedReply, fault.Config{DroppedReply: 0.2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, err := Tune(context.Background(), chaosOptions(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			if a.Recommendation.Signature == "" {
				t.Error("no recommendation under faults")
			}
			if a.BestConfig == nil {
				t.Error("no best config under faults")
			}
			if got := a.Resilience.FaultCount(string(tc.class)); got == 0 {
				t.Errorf("no %s faults recorded in %d trials", tc.class, a.TrialsRun)
			}
			b, err := Tune(context.Background(), chaosOptions(tc.cfg))
			if err != nil {
				t.Fatal(err)
			}
			if a.BestScore != b.BestScore || a.TuningDuration != b.TuningDuration {
				t.Errorf("same-seed chaos runs differ: %v/%v vs %v/%v",
					a.BestScore, a.TuningDuration, b.BestScore, b.TuningDuration)
			}
			if !reflect.DeepEqual(a.Resilience, b.Resilience) {
				t.Errorf("resilience counters differ across identical runs:\n%+v\n%+v",
					a.Resilience, b.Resilience)
			}
		})
	}
}

// TestTuneUnderCombinedFaults turns every class on at once.
func TestTuneUnderCombinedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	cfg := fault.Config{
		TrialCrash:   0.1,
		TrialNaN:     0.1,
		Straggler:    0.1,
		DeviceFlap:   0.1,
		StoreWrite:   0.1,
		DroppedReply: 0.1,
	}
	res, err := Tune(context.Background(), chaosOptions(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recommendation.Signature == "" {
		t.Error("no recommendation under combined faults")
	}
	if res.Resilience.TotalFaults == 0 {
		t.Error("no faults recorded with every class enabled")
	}
	// Retry cost must be charged to the budget: a clean run of the same
	// job is never more expensive.
	clean, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.Retries > 0 && res.TuningDuration <= clean.TuningDuration {
		t.Errorf("faulty run (%d retries) not costlier: %v vs clean %v",
			res.Resilience.Retries, res.TuningDuration, clean.TuningDuration)
	}
}

// TestTuneDegradesWhenDeviceIsDown: with the device flapping on every
// request, the breaker must open and the tuner must fall back to
// estimated inference data — degraded, but a recommendation all the
// same.
func TestTuneDegradesWhenDeviceIsDown(t *testing.T) {
	res, err := Tune(context.Background(), chaosOptions(fault.Config{DeviceFlap: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.BreakerOpens == 0 {
		t.Error("breaker never opened with the device permanently down")
	}
	if res.Resilience.Degraded == 0 {
		t.Error("no degraded outcomes with live inference impossible")
	}
	if !res.RecommendationDegraded {
		t.Error("final recommendation not marked degraded")
	}
	if res.Recommendation.Throughput <= 0 {
		t.Errorf("degraded recommendation implausible: %+v", res.Recommendation)
	}
	degraded := 0
	for _, tr := range res.Trials {
		if tr.Outcome == OutcomeDegraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no trial records marked degraded")
	}
}

// TestTuneFailedTrialsAreDropped: with crashes certain, every trial
// exhausts its attempts; the bracket completes with failed records and
// the job reports that nothing succeeded instead of crashing.
func TestTuneAllTrialsFail(t *testing.T) {
	opts := chaosOptions(fault.Config{TrialCrash: 1})
	opts.MaxBrackets = 1
	_, err := Tune(context.Background(), opts)
	if err == nil || err.Error() != "core: no successful trials" {
		t.Errorf("err = %v, want no-successful-trials", err)
	}
}

// TestTuneFailedTrialAccounting: at a moderate crash rate, failed and
// retried trials appear in the records with their attempts and retry
// cost, and failed trials never win.
func TestTuneFailedTrialAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	opts := chaosOptions(fault.Config{TrialCrash: 0.4})
	opts.MaxAttempts = 2
	res, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sawRetry, sawFailed := false, false
	for _, tr := range res.Trials {
		if tr.Attempts > 1 {
			sawRetry = true
			if tr.RetryCost.Duration <= 0 {
				t.Errorf("retried trial charged no retry cost: %+v", tr)
			}
		}
		if tr.Outcome == OutcomeFailed {
			sawFailed = true
			if tr.Score != failedTrialScore {
				t.Errorf("failed trial score = %v", tr.Score)
			}
			if tr.Config.Key() == res.BestConfig.Key() && res.BestScore == failedTrialScore {
				t.Error("failed trial selected as best")
			}
		}
	}
	if !sawRetry {
		t.Error("no retried trials at 40% crash rate")
	}
	if !sawFailed {
		t.Skip("no exhausted trials this seed; retry accounting still covered")
	}
}

// errKilled simulates a process kill at a rung boundary.
var errKilled = errors.New("chaos: killed")

// TestTuneCheckpointResume kills the job after an early rung and
// resumes it from the store checkpoint: the resumed run must re-execute
// zero completed rungs and finish the full schedule.
func TestTuneCheckpointResume(t *testing.T) {
	st := store.New()
	makeOpts := func() Options {
		opts := smallOptions("IC")
		opts.Store = st
		opts.Checkpoint = true
		return opts
	}

	// Reference: the same job uninterrupted, on a fresh store.
	full, err := Tune(context.Background(), func() Options {
		o := smallOptions("IC")
		o.Checkpoint = true
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: kill after bracket 0, rung 1.
	partialOpts := makeOpts()
	partialOpts.AfterRung = func(bracket, rung int) error {
		if bracket == 0 && rung == 1 {
			return errKilled
		}
		return nil
	}
	partial, err := Tune(context.Background(), partialOpts)
	if !errors.Is(err, errKilled) {
		t.Fatalf("kill hook not honoured: %v", err)
	}
	if partial.TrialsRun == 0 || partial.TrialsRun >= full.TrialsRun {
		t.Fatalf("partial run executed %d trials, full schedule is %d", partial.TrialsRun, full.TrialsRun)
	}
	if len(st.CheckpointKeys()) != 1 {
		t.Fatalf("checkpoint keys = %v", st.CheckpointKeys())
	}

	// Phase 2: resume with identical options against the same store.
	resumed, err := Tune(context.Background(), makeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Zero re-execution: the restored trials plus the freshly executed
	// ones exactly fill the schedule.
	if resumed.TrialsRun != full.TrialsRun {
		t.Errorf("resumed run finished with %d trials, schedule is %d (re-ran completed rungs?)",
			resumed.TrialsRun, full.TrialsRun)
	}
	newTrials := resumed.TrialsRun - partial.TrialsRun
	if newTrials <= 0 || newTrials >= full.TrialsRun {
		t.Errorf("resume executed %d new trials, want a strict remainder of %d", newTrials, full.TrialsRun)
	}
	if resumed.Resilience.ResumedRungs != 2 {
		t.Errorf("ResumedRungs = %d, want 2", resumed.Resilience.ResumedRungs)
	}
	// Each (bracket, rung) slot holds exactly the halving schedule's
	// population — a re-executed rung would double its records.
	wantPerRung := map[[2]int]int{}
	for _, tr := range full.Trials {
		wantPerRung[[2]int{tr.Bracket, tr.Rung}]++
	}
	gotPerRung := map[[2]int]int{}
	for _, tr := range resumed.Trials {
		gotPerRung[[2]int{tr.Bracket, tr.Rung}]++
	}
	if !reflect.DeepEqual(wantPerRung, gotPerRung) {
		t.Errorf("per-rung trial counts differ:\nfull:    %v\nresumed: %v", wantPerRung, gotPerRung)
	}
	if resumed.Recommendation.Signature == "" {
		t.Error("resumed run produced no recommendation")
	}
	// A successful run keeps its final checkpoint as a durable
	// completion marker (so a crash-looping restart converges instead
	// of re-running the schedule); rerunning the identical job must
	// restore it and re-execute nothing.
	if keys := st.CheckpointKeys(); len(keys) != 1 {
		t.Errorf("completion checkpoint not retained: %v", keys)
	}
	rerun, err := Tune(context.Background(), makeOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The restored resilience snapshot is cumulative, so the rerun
	// reports at least the full schedule (plus the earlier resume's 2).
	if rerun.Resilience.ResumedRungs < int64(2*smallOptions("IC").Rungs) {
		t.Errorf("rerun resumed %d rungs, want at least the full schedule", rerun.Resilience.ResumedRungs)
	}
	if rerun.TrialsRun != full.TrialsRun {
		t.Errorf("rerun reports %d trials, want the restored %d", rerun.TrialsRun, full.TrialsRun)
	}
	if !reflect.DeepEqual(rerun.BestConfig, resumed.BestConfig) {
		t.Errorf("rerun best config %v != %v", rerun.BestConfig, resumed.BestConfig)
	}
}

// TestTuneCheckpointResumeAtBracketBoundary kills exactly at the end of
// bracket 0; the resume must start bracket 1 with a fresh population.
func TestTuneCheckpointResumeAtBracketBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	st := store.New()
	opts := smallOptions("IC")
	opts.Store = st
	opts.Checkpoint = true
	opts.AfterRung = func(bracket, rung int) error {
		if bracket == 0 && rung == opts.Rungs-1 {
			return errKilled
		}
		return nil
	}
	partial, err := Tune(context.Background(), opts)
	if !errors.Is(err, errKilled) {
		t.Fatalf("kill hook not honoured: %v", err)
	}
	opts.AfterRung = nil
	resumed, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resilience.ResumedRungs != int64(opts.Rungs) {
		t.Errorf("ResumedRungs = %d, want %d", resumed.Resilience.ResumedRungs, opts.Rungs)
	}
	if resumed.TrialsRun != 2*partial.TrialsRun {
		t.Errorf("resumed %d trials, want %d (one full extra bracket)", resumed.TrialsRun, 2*partial.TrialsRun)
	}
	for _, tr := range resumed.Trials[partial.TrialsRun:] {
		if tr.Bracket != 1 {
			t.Fatalf("resume re-entered bracket %d", tr.Bracket)
		}
	}
}

// TestTuneCheckpointSurvivesKill persists checkpoints through a durable
// store, abandons it where a killed process would, and resumes from what
// a fresh open recovers from disk.
func TestTuneCheckpointSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	path := t.TempDir() + "/store.json"
	dur, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOptions("IC")
	opts.Store = dur.Store()
	opts.Checkpoint = true
	opts.AfterRung = func(bracket, rung int) error {
		if bracket == 0 && rung == 0 {
			return errKilled
		}
		return nil
	}
	partial, err := Tune(context.Background(), opts)
	if !errors.Is(err, errKilled) {
		t.Fatalf("kill hook not honoured: %v", err)
	}
	// The kill: no final compaction, the disk stays as the last
	// acknowledged append left it.
	if err := dur.Abandon(); err != nil {
		t.Fatal(err)
	}

	// "New process": recover everything from disk.
	reopened, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	loaded := reopened.Store()
	opts2 := smallOptions("IC")
	opts2.Store = loaded
	opts2.Checkpoint = true
	resumed, err := Tune(context.Background(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resilience.ResumedRungs != 1 {
		t.Errorf("ResumedRungs = %d, want 1", resumed.Resilience.ResumedRungs)
	}
	if resumed.TrialsRun <= partial.TrialsRun {
		t.Error("resume from disk did not continue the schedule")
	}
	if keys := loaded.CheckpointKeys(); len(keys) != 1 {
		t.Errorf("completion checkpoint not retained: %v", keys)
	}
}

// TestTuneCheckpointIgnoredForDifferentJob: a checkpoint must only be
// resumed by the job shape that wrote it.
func TestTuneCheckpointIgnoredForDifferentJob(t *testing.T) {
	st := store.New()
	opts := smallOptions("IC")
	opts.Store = st
	opts.Checkpoint = true
	opts.AfterRung = func(bracket, rung int) error { return errKilled }
	if _, err := Tune(context.Background(), opts); !errors.Is(err, errKilled) {
		t.Fatal(err)
	}
	other := smallOptions("IC")
	other.Store = st
	other.Checkpoint = true
	other.Seed = 99 // different job shape -> different checkpoint key
	res, err := Tune(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience.ResumedRungs != 0 {
		t.Errorf("foreign checkpoint resumed %d rungs", res.Resilience.ResumedRungs)
	}
}

// TestTuneCheckpointIsPerTenant: two tenants submitting the same job
// shape with the same seed to one shared store each run their own job;
// the second must not resume the first one's completion checkpoint.
func TestTuneCheckpointIsPerTenant(t *testing.T) {
	st := store.New()
	run := func(tenant string) Result {
		opts := smallOptions("IC")
		opts.Store = st
		opts.Checkpoint = true
		opts.Tenant = tenant
		res, err := Tune(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run("tenant-a"), run("tenant-b")
	if b.Resilience.ResumedRungs != 0 {
		t.Errorf("tenant-b resumed %d rungs of tenant-a's job", b.Resilience.ResumedRungs)
	}
	if b.TrialsRun != a.TrialsRun {
		t.Errorf("tenant-b ran %d trials, tenant-a %d", b.TrialsRun, a.TrialsRun)
	}
	if keys := st.CheckpointKeys(); len(keys) != 2 {
		t.Errorf("checkpoint keys = %v, want one per tenant", keys)
	}
}

// TestTuneChaosWithCheckpointDeterministic: checkpointing plus faults
// plus a kill/resume still yields deterministic resilience accounting
// for the resumed portion.
func TestTuneChaosResumeCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	st := store.New()
	opts := chaosOptions(fault.Config{TrialCrash: 0.1, DroppedReply: 0.1})
	opts.Store = st
	opts.Checkpoint = true
	opts.AfterRung = func(bracket, rung int) error {
		if bracket == 1 && rung == 0 {
			return errKilled
		}
		return nil
	}
	if _, err := Tune(context.Background(), opts); !errors.Is(err, errKilled) {
		t.Fatal(err)
	}
	opts.AfterRung = nil
	resumed, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Recommendation.Signature == "" {
		t.Error("no recommendation after chaotic resume")
	}
	if resumed.Resilience.ResumedRungs == 0 {
		t.Error("resume did not skip completed rungs")
	}
}

// overloadDigest captures everything observable about one overload
// scenario run, for the same-seed determinism comparison.
type overloadDigest struct {
	Outcomes   []string
	Phase1Shed int64
	Resilience counters.ResilienceSnapshot
	Pending    int
	Stored     int
}

// runOverloadScenario drives the serving acceptance scenario: a twin-I7
// pool with brown-outs and injected overload bursts, a saturation burst
// past the admission limit, then a graceful drain.
func runOverloadScenario(t *testing.T) overloadDigest {
	t.Helper()
	inj, err := fault.NewInjector(fault.Config{
		DeviceBrownout: 0.3,
		BrownoutFactor: 10,
		OverloadBurst:  0.1,
	}, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	srv, rec := servingServer(t, st, func(o *InferenceServerOptions) {
		o.Pool = []device.Device{device.I7(), i7Twin()}
		o.Workers = 2
		o.QueueLimit = 8
		o.HedgeFactor = 1.5
		o.Seed = 42
		o.Fault = inj
	})

	// Phase 1 — saturation: freeze the workers and burst 32 unique
	// submissions at the gate. Exactly QueueLimit are admitted no
	// matter how fast workers would have drained, because the bound
	// covers queued + in-flight.
	srv.adm.setHold(true)
	chs := make([]<-chan InferOutcome, 0, 36)
	for i := 0; i < 32; i++ {
		chs = append(chs, srv.Submit(context.Background(), sigRequest(i)))
	}
	if got := srv.adm.inSystem(); got != 8 {
		t.Errorf("saturated in-system = %d, want exactly QueueLimit 8", got)
	}
	srv.adm.setHold(false)

	// Phase 2 — drain under load: freeze again, queue a few more, then
	// drain gracefully while they are still queued.
	outs := make([]InferOutcome, 0, 36)
	for i := 0; i < 32; i++ {
		outs = append(outs, mustOutcome(t, chs[i])) // settle phase 1 before freezing again
	}
	phase1Shed := rec.Snapshot().Shed
	srv.adm.setHold(true)
	for i := 32; i < 36; i++ {
		chs = append(chs, srv.Submit(context.Background(), sigRequest(i)))
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	for !srv.adm.isRejecting() {
		time.Sleep(time.Millisecond)
	}
	srv.adm.setHold(false)
	select {
	case err := <-drained:
		if err != nil {
			t.Errorf("graceful drain under load: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(99))); !errors.Is(out.Err, ErrServerClosed) {
		t.Errorf("submit after drain err = %v, want ErrServerClosed", out.Err)
	}

	for i := 32; i < 36; i++ {
		outs = append(outs, mustOutcome(t, chs[i]))
	}

	// Digest every outcome plus the final counters and store state.
	d := overloadDigest{Phase1Shed: phase1Shed, Resilience: rec.Snapshot(), Pending: srv.writes.Pending()}
	for i, out := range outs {
		switch {
		case out.Err == nil:
			d.Outcomes = append(d.Outcomes, fmt.Sprintf("ok@%s hedged=%v lat=%d", out.Device, out.Hedged, out.Latency))
			// Zero dropped writes: every success must be in the store
			// after the drain.
			if _, err := st.Get(sigRequest(i).Signature, out.Device); err != nil {
				t.Errorf("successful outcome %d missing from store: %v", i, err)
			}
			d.Stored++
		case errors.Is(out.Err, ErrServerClosed):
			d.Outcomes = append(d.Outcomes, "closed")
		case errors.Is(out.Err, ErrOverloaded):
			d.Outcomes = append(d.Outcomes, "shed")
		default:
			d.Outcomes = append(d.Outcomes, "err:"+out.Err.Error())
		}
	}
	return d
}

// TestInferenceServerOverloadBrownoutChaos is the serving acceptance
// test: sustained overload with a browning-out pool must shed
// deterministically, hedge stragglers, lose no completed store write,
// leak no goroutines, and replay identically under the same seed.
func TestInferenceServerOverloadBrownoutChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	// No goroutine leak: workers, flushers, and watchers must all be
	// gone once both scenario runs have drained their servers.
	testutil.CheckGoroutineLeak(t, 2)
	a := runOverloadScenario(t)

	if a.Phase1Shed != 24 {
		t.Errorf("phase-1 shed = %d, want 24 (32 submissions - 8 queue slots)", a.Phase1Shed)
	}
	if a.Resilience.Hedges == 0 {
		t.Error("no hedges under 30%% brown-outs")
	}
	if a.Resilience.Drained == 0 {
		t.Error("no requests recorded as completed during drain")
	}
	if a.Pending != 0 {
		t.Errorf("%d writes still pending after drain", a.Pending)
	}
	if a.Stored == 0 {
		t.Error("no successful outcomes stored")
	}

	b := runOverloadScenario(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same-seed overload scenarios diverged:\n%+v\n%+v", a, b)
	}
}

// TestHedgingImprovesTailLatency: under injected brown-out stragglers,
// hedged serving must strictly beat the no-hedge baseline at the tail
// (p99), and never be worse on any individual request.
func TestHedgingImprovesTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	const n = 60
	run := func(disable bool) []time.Duration {
		inj, err := fault.NewInjector(fault.Config{DeviceBrownout: 0.3, BrownoutFactor: 12}, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
			o.Pool = []device.Device{device.I7(), i7Twin()}
			o.HedgeFactor = 1.5
			o.Seed = 9
			o.Fault = inj
		})
		srv.noHedging = disable
		lats := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(i)))
			if out.Err != nil {
				t.Fatalf("request %d failed: %v", i, out.Err)
			}
			lats = append(lats, out.Latency)
		}
		return lats
	}

	// The runs are compared distributionally, not pointwise: health
	// scoring reacts to the hedge observations too, so later requests
	// may route (and roll brown-outs) differently between the two runs.
	hedged := run(false)
	plain := run(true)
	h, p := append([]time.Duration(nil), hedged...), append([]time.Duration(nil), plain...)
	sort.Slice(h, func(i, j int) bool { return h[i] < h[j] })
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
	idx := n * 99 / 100
	if h[idx] >= p[idx] {
		t.Errorf("hedged p99 %v not strictly below baseline p99 %v", h[idx], p[idx])
	}
}
