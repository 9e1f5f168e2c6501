package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"edgetune/internal/device"
	"edgetune/internal/perfmodel"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// TestObjectiveSoftTargetPenalty: below the target, the shortfall is
// penalised quadratically; at or above it, the raw ratio applies.
func TestObjectiveSoftTargetPenalty(t *testing.T) {
	train := perfmodel.Cost{Duration: 100 * time.Second, EnergyJ: 1000}
	inf := perfmodel.InferResult{Throughput: 10, EnergyPerSampleJ: 1}
	obj := Objective{Metric: MetricRuntime, TargetAccuracy: 0.8}
	noTarget := Objective{Metric: MetricRuntime}

	// Above target: identical to the unconstrained objective.
	if got, want := obj.ModelScore(train, inf, 0.9), noTarget.ModelScore(train, inf, 0.9); got != want {
		t.Errorf("above target: %v != %v", got, want)
	}
	// Below target: strictly worse than the unconstrained score.
	if got, want := obj.ModelScore(train, inf, 0.4), noTarget.ModelScore(train, inf, 0.4); got <= want {
		t.Errorf("below target: %v not penalised vs %v", got, want)
	}
	// The penalty must be strong enough that a 2x faster config cannot
	// buy its way past a halved accuracy (the pathology that would let
	// fast-but-inaccurate configurations win).
	fast := perfmodel.Cost{Duration: 50 * time.Second, EnergyJ: 500}
	if obj.ModelScore(fast, inf, 0.4) <= obj.ModelScore(train, inf, 0.85) {
		t.Error("2x-faster half-accuracy config outscored a target-reaching one")
	}
	// Monotone: more accuracy never scores worse.
	prev := obj.ModelScore(train, inf, 0.1)
	for acc := 0.15; acc <= 1.0; acc += 0.05 {
		s := obj.ModelScore(train, inf, acc)
		if s > prev {
			t.Fatalf("score not monotone in accuracy at %v", acc)
		}
		prev = s
	}
}

func TestInferenceServerSubmitAfterClose(t *testing.T) {
	st := store.New()
	srv := infServer(t, st, 4)
	srv.Close()
	out := <-srv.Submit(context.Background(), icRequest())
	if !errors.Is(out.Err, ErrServerClosed) {
		t.Errorf("submit after Close: err = %v, want ErrServerClosed", out.Err)
	}
}

func TestInferenceServerCloseIdempotent(t *testing.T) {
	srv := infServer(t, store.New(), 4)
	srv.Close()
	srv.Close() // must not panic or deadlock
}

func TestInferenceServerSubmitCancelledContext(t *testing.T) {
	srv := infServer(t, store.New(), 4)
	// Saturate the single pending path first so the context branch is
	// reachable; with workers available the request may still be
	// accepted, so only assert no deadlock and a reply.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	select {
	case <-srv.Submit(ctx, icRequest()):
	case <-time.After(5 * time.Second):
		t.Fatal("submit with cancelled context deadlocked")
	}
}

func TestAwaitOutcomeDeadline(t *testing.T) {
	ch := make(chan InferOutcome) // never delivers
	_, err := awaitOutcome(context.Background(), ch, 30*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("missed deadline error = %v", err)
	}
}

func TestAwaitOutcomePropagatesErrors(t *testing.T) {
	ch := make(chan InferOutcome, 1)
	ch <- InferOutcome{Err: context.DeadlineExceeded}
	if _, err := awaitOutcome(context.Background(), ch, time.Second); err == nil {
		t.Error("outcome error not propagated")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := awaitOutcome(ctx, make(chan InferOutcome), time.Second); err == nil {
		t.Error("context cancellation not propagated")
	}
}

// slowInfServer builds a single-worker server whose uncached requests
// take long enough to hold the worker while later submissions queue.
func slowInfServer(t *testing.T, trials int) *InferenceServer {
	t.Helper()
	w := workload.MustNew("IC", 1)
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewInferenceServer(InferenceServerOptions{
		Device:  dev,
		Space:   space,
		Metric:  MetricRuntime,
		Trials:  trials,
		Workers: 1,
		Store:   store.New(),
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestInferenceServerSubmitHonoursContextWhileQueued: with the only
// worker busy, a queued request whose context is cancelled must fail
// promptly instead of waiting for the worker to free up.
func TestInferenceServerSubmitHonoursContextWhileQueued(t *testing.T) {
	srv := slowInfServer(t, 2_000_000)
	busyCtx, busyCancel := context.WithCancel(context.Background())
	busy := srv.Submit(busyCtx, icRequest())

	// Submit enqueues without blocking; with the only worker busy the
	// job waits in the admission queue, where the caller's deadline
	// must still be honoured.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	queued := srv.Submit(ctx, InferRequest{
		Signature: "IC/layers=34", FLOPsPerSample: 1.2e9, Params: 21e6,
	})
	select {
	case out := <-queued:
		if out.Err == nil {
			t.Error("cancelled queued request succeeded")
		} else if !errors.Is(out.Err, context.DeadlineExceeded) {
			t.Errorf("queued request error = %v, want its context's deadline", out.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled queued request never replied")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancelled request waited %v for the busy worker", waited)
	}
	busyCancel()
	<-busy // drain so Close does not race the in-flight request
}

// TestInferenceServerCancelMidTune: cancelling the caller's context
// while its request is being tuned aborts between inference trials, and
// a caller cancellation must not trip the device's breaker.
func TestInferenceServerCancelMidTune(t *testing.T) {
	srv := slowInfServer(t, 2_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	ch := srv.Submit(ctx, icRequest())
	time.Sleep(20 * time.Millisecond) // let the worker start tuning
	cancel()
	select {
	case out := <-ch:
		if out.Err == nil {
			t.Error("cancelled mid-tune request succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not abort the tuning loop")
	}
	br := srv.pool.breakerOf(srv.opts.Pool[0].Profile.Name)
	if st := br.snapshotState(); st != breakerClosed {
		t.Errorf("caller cancellation moved the breaker to state %d", st)
	}
}

// TestTunePropagatesTrialErrors: a system configuration the training
// platform cannot host must surface an error, not hang or silently skip
// trials.
func TestTunePropagatesTrialErrors(t *testing.T) {
	opts := smallOptions("IC")
	opts.SystemParams = false
	opts.FixedGPUs = 2 * perfmodel.TitanRTX().MaxGPUs // every trial invalid
	if _, err := Tune(context.Background(), opts); err == nil {
		t.Error("invalid system configurations did not error")
	}
}

func TestTuneWithPreloadedStoreSkipsInferenceTuning(t *testing.T) {
	// Pre-seed the store with every IC architecture: tuning must then
	// never pay inference-tuning time.
	st := store.New()
	w := workload.MustNew("IC", 1)
	for _, layers := range []float64{18, 34, 50} {
		err := st.Put(store.Entry{
			Signature:        w.Signature(map[string]float64{workload.ParamLayers: layers}),
			Device:           device.I7().Profile.Name,
			Config:           map[string]float64{workload.ParamInferBatch: 8, workload.ParamCores: 2, workload.ParamFreq: 2},
			Throughput:       40,
			EnergyPerSampleJ: 0.2,
			LatencySeconds:   0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	opts := smallOptions("IC")
	opts.Store = st
	res, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.InferTuningDuration != 0 {
		t.Errorf("preloaded store still paid %v of inference tuning", res.InferTuningDuration)
	}
	if res.CacheMisses != 0 {
		t.Errorf("%d cache misses with a fully preloaded store", res.CacheMisses)
	}
}

func TestTuneRecordsMaxAccuracy(t *testing.T) {
	res, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	var maxSeen float64
	for _, tr := range res.Trials {
		if tr.Accuracy > maxSeen {
			maxSeen = tr.Accuracy
		}
	}
	if res.MaxAccuracy != maxSeen {
		t.Errorf("MaxAccuracy = %v, trials max = %v", res.MaxAccuracy, maxSeen)
	}
	if res.BestAccuracy > res.MaxAccuracy {
		t.Error("BestAccuracy above MaxAccuracy")
	}
}

// TestTuneStopAtTargetStopsEarlier: with the same settings, stopping at
// the target must never run more trials than the full schedule.
func TestTuneStopAtTargetStopsEarlier(t *testing.T) {
	full, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	stopOpts := smallOptions("IC")
	stopOpts.StopAtTarget = true
	stopped, err := Tune(context.Background(), stopOpts)
	if err != nil {
		t.Fatal(err)
	}
	if stopped.TrialsRun > full.TrialsRun {
		t.Errorf("StopAtTarget ran %d trials vs %d for the full schedule",
			stopped.TrialsRun, full.TrialsRun)
	}
	if stopped.ReachedTarget && stopped.TrialsRun == full.TrialsRun && full.ReachedTarget {
		// Both reached in the final bracket: equality is acceptable.
		t.Log("target reached only in the final bracket")
	}
}
