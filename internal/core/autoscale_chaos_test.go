package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/counters"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
)

// autoscaleTune runs a full tuning job with the autoscaler enabled and
// flash-crowd faults injected, returning the result and the serialized
// trace (which includes every scale-event span).
func autoscaleTune(t *testing.T) (Result, []byte) {
	t.Helper()
	opts := chaosOptions(fault.Config{FlashCrowd: 0.3})
	opts.Autoscale = &autoscale.Config{}
	opts.Trace = obs.NewTracer()
	res, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opts.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestAutoscaleFlashCrowdDeterminism: two identically-seeded tuning
// runs under flash-crowd faults must produce byte-identical autoscale
// digests, decision streams, and traces — the same-seed contract
// extended to the control loop.
func TestAutoscaleFlashCrowdDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	a, atr := autoscaleTune(t)
	b, btr := autoscaleTune(t)

	if a.Autoscale == nil || b.Autoscale == nil {
		t.Fatal("autoscale report missing from tuning result")
	}
	if a.Autoscale.ScaleUps == 0 {
		t.Error("flash crowds never drove a scale-up; raise the rate")
	}
	if a.Autoscale.Digest != b.Autoscale.Digest {
		t.Errorf("autoscale digests differ: %016x vs %016x", a.Autoscale.Digest, b.Autoscale.Digest)
	}
	if !reflect.DeepEqual(a.Autoscale, b.Autoscale) {
		t.Errorf("autoscale reports differ:\n%+v\n%+v", a.Autoscale, b.Autoscale)
	}
	if a.BestScore != b.BestScore {
		t.Errorf("best scores differ: %v vs %v", a.BestScore, b.BestScore)
	}
	if a.TuningDuration != b.TuningDuration {
		t.Errorf("tuning durations differ: %v vs %v", a.TuningDuration, b.TuningDuration)
	}
	if a.Recommendation.Signature != b.Recommendation.Signature {
		t.Errorf("recommendations differ: %q vs %q", a.Recommendation.Signature, b.Recommendation.Signature)
	}
	if !reflect.DeepEqual(a.Resilience, b.Resilience) {
		t.Errorf("resilience counters differ:\n%+v\n%+v", a.Resilience, b.Resilience)
	}
	if !bytes.Contains(atr, []byte("scale-event")) {
		t.Error("trace has no scale-event spans")
	}
	if !bytes.Equal(atr, btr) {
		t.Error("traces differ between identically-seeded runs")
	}
	// The warm-up bill must have landed on the tuning budget.
	if a.Autoscale.WarmupTime <= 0 {
		t.Error("scale-ups charged no warm-up time")
	}
}

// TestAutoscaleMassDeviceFailRecovery: a mass device failure collapses
// the pool; the autoscaler must rebuild capacity from warm replicas and
// recovery probes, scale back to Min, and leave the serving/capacity
// burn-rate alert cleared.
func TestAutoscaleMassDeviceFailRecovery(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 2)
	inj, err := fault.NewInjector(fault.Config{MassDeviceFail: 1}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := slo.NewEvaluator()
	srv, rec := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Fault = inj
		o.SLO = ev
		o.Autoscale = &autoscale.Config{Min: 1, Max: 3}
	})

	// 59 submissions a second apart give the shipped control loop time
	// to scale out through the outage and back in to Min.
	sawAlert := false
	for i := 0; i < 59; i++ {
		req := sigRequest(i)
		req.SubmitTime = time.Duration(i) * time.Second
		mustOutcome(t, srv.Submit(context.Background(), req))
		if o, ok := ev.Snapshot().Objective("serving/capacity"); ok && o.Alerting {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Error("serving/capacity never alerted during the outage")
	}
	if o, ok := ev.Snapshot().Objective("serving/capacity"); !ok {
		t.Error("serving/capacity objective not registered")
	} else if o.Alerting {
		t.Errorf("serving/capacity still alerting after recovery: %+v", o)
	}

	rep := srv.AutoscaleReport()
	if rep == nil {
		t.Fatal("no autoscale report")
	}
	if rep.FinalReplicas != 1 {
		t.Errorf("final replicas = %d, want scale-down back to Min", rep.FinalReplicas)
	}
	if rep.ScaleUps < 2 || rep.ScaleDowns < 2 {
		t.Errorf("scale-ups/downs = %d/%d, want at least 2 each", rep.ScaleUps, rep.ScaleDowns)
	}
	if rep.Decisions != rep.ScaleUps+rep.ScaleDowns {
		t.Errorf("decisions = %d, want scale-ups + scale-downs = %d", rep.Decisions, rep.ScaleUps+rep.ScaleDowns)
	}
	if got := rec.Snapshot().Quarantines; got < 1 {
		t.Errorf("quarantine counter = %d, want the failed pool recorded", got)
	}

	// Close must be idempotent after the chaos run.
	srv.Close()
	srv.Close()
}

// TestAutoscaleScaleStall: with every scale-up stalled, the warm-up
// cost is still charged, no replica ever joins, and the controller
// keeps retrying because the replica count it observes never moves.
func TestAutoscaleScaleStall(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	inj, err := fault.NewInjector(fault.Config{FlashCrowd: 1, ScaleStall: 1}, 7, rec)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Fault = inj
		o.Autoscale = &autoscale.Config{Min: 1, Max: 3}
	})
	const n = 8
	for i := 0; i < n; i++ {
		req := sigRequest(i)
		req.SubmitTime = time.Duration(i) * 10 * time.Second
		mustOutcome(t, srv.Submit(context.Background(), req))
	}
	rep := srv.AutoscaleReport()
	if rep.ScaleUps != n {
		t.Errorf("scale-ups = %d, want one per hot tick (%d)", rep.ScaleUps, n)
	}
	if got := rec.Snapshot().FaultCount(string(fault.ScaleStall)); got != n {
		t.Errorf("stalls = %d, want every scale-up swallowed (%d)", got, n)
	}
	if rep.FinalReplicas != 1 {
		t.Errorf("final replicas = %d, want 1: stalled replicas must not join", rep.FinalReplicas)
	}
	if want := time.Duration(n) * 30 * time.Second; rep.WarmupTime != want {
		t.Errorf("warm-up time = %v, want %v (30 s per stall) charged despite the stalls", rep.WarmupTime, want)
	}
	if rep.WarmupEnergyJ != n*150 {
		t.Errorf("warm-up energy = %v J, want %v (150 J per stall)", rep.WarmupEnergyJ, n*150)
	}
}
