package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"edgetune/internal/device"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

func TestMetricValidate(t *testing.T) {
	if err := MetricRuntime.Validate(); err != nil {
		t.Error(err)
	}
	if err := MetricEnergy.Validate(); err != nil {
		t.Error(err)
	}
	if err := Metric("latency").Validate(); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestObjectiveScores(t *testing.T) {
	train := perfmodel.Cost{Duration: 100 * time.Second, EnergyJ: 5000}
	inf := perfmodel.InferResult{Throughput: 50, EnergyPerSampleJ: 0.2}

	rt := Objective{Metric: MetricRuntime}
	// 100 s × (1/50 s) / 0.8 = 2.5
	if got := rt.ModelScore(train, inf, 0.8); got != 2.5 {
		t.Errorf("runtime ModelScore = %v, want 2.5", got)
	}
	en := Objective{Metric: MetricEnergy}
	// 5000 × 0.2 / 0.8 = 1250
	if got := en.ModelScore(train, inf, 0.8); got != 1250 {
		t.Errorf("energy ModelScore = %v, want 1250", got)
	}
	// Zero accuracy must not divide by zero.
	if got := rt.ModelScore(train, inf, 0); got <= 0 {
		t.Errorf("zero-accuracy score = %v, want large positive", got)
	}
	if got := rt.TrainOnlyScore(train, 0.5); got != 200 {
		t.Errorf("TrainOnlyScore = %v, want 200", got)
	}
	if got := rt.InferScore(inf); got != 0.02 {
		t.Errorf("runtime InferScore = %v, want 0.02", got)
	}
	if got := en.InferScore(inf); got != 0.2 {
		t.Errorf("energy InferScore = %v, want 0.2", got)
	}
}

// LowerAccuracyScoresWorse: for a fixed cost, the objective must prefer
// higher accuracy.
func TestObjectivePrefersAccuracy(t *testing.T) {
	train := perfmodel.Cost{Duration: time.Minute, EnergyJ: 1000}
	inf := perfmodel.InferResult{Throughput: 10, EnergyPerSampleJ: 1}
	o := Objective{Metric: MetricRuntime}
	if o.ModelScore(train, inf, 0.9) >= o.ModelScore(train, inf, 0.5) {
		t.Error("higher accuracy did not lower the score")
	}
}

func infServer(t *testing.T, st *store.Store, trials int) *InferenceServer {
	t.Helper()
	w := workload.MustNew("IC", 1)
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewInferenceServer(InferenceServerOptions{
		Device: dev,
		Space:  space,
		Metric: MetricRuntime,
		Trials: trials,
		Store:  st,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func icRequest() InferRequest {
	return InferRequest{Signature: "IC/layers=18", FLOPsPerSample: 5.6e8, Params: 11e6}
}

func TestInferenceServerTunes(t *testing.T) {
	st := store.New()
	srv := infServer(t, st, 16)
	out := <-srv.Submit(context.Background(), icRequest())
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Cached {
		t.Error("first request reported cached")
	}
	e := out.Entry
	if e.Throughput <= 0 || e.EnergyPerSampleJ <= 0 {
		t.Errorf("implausible entry: %+v", e)
	}
	if e.Config[workload.ParamInferBatch] < 1 {
		t.Error("recommendation missing inference batch")
	}
	if e.TrialsRun != 16 {
		t.Errorf("TrialsRun = %d, want 16", e.TrialsRun)
	}
	if out.TuningCost.Duration <= 0 {
		t.Error("uncached tuning must cost simulated time")
	}
	// Results reach the store through the write-behind buffer; flush
	// before asserting on the underlying store.
	if err := srv.FlushWrites(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Errorf("store has %d entries, want 1", st.Len())
	}
}

func TestInferenceServerCacheHit(t *testing.T) {
	st := store.New()
	srv := infServer(t, st, 8)
	ctx := context.Background()
	first := <-srv.Submit(ctx, icRequest())
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	second := <-srv.Submit(ctx, icRequest())
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.Cached {
		t.Error("second request not served from the store")
	}
	if second.TuningCost.Duration != 0 {
		t.Error("cache hit charged tuning cost")
	}
	if second.Entry.Objective != first.Entry.Objective {
		t.Error("cache returned a different result")
	}
}

func TestInferenceServerCoalescesConcurrentDuplicates(t *testing.T) {
	st := store.New()
	srv := infServer(t, st, 12)
	ctx := context.Background()
	const n = 16
	outs := make([]<-chan InferOutcome, n)
	for i := 0; i < n; i++ {
		outs[i] = srv.Submit(ctx, icRequest())
	}
	uncached := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, ch := range outs {
		wg.Add(1)
		go func(c <-chan InferOutcome) {
			defer wg.Done()
			o := <-c
			if o.Err != nil {
				t.Error(o.Err)
				return
			}
			mu.Lock()
			if !o.Cached {
				uncached++
			}
			mu.Unlock()
		}(ch)
	}
	wg.Wait()
	if uncached != 1 {
		t.Errorf("%d uncached tuning runs for identical requests, want exactly 1", uncached)
	}
}

// TestInferenceServerSearchesEachSignatureOnce repeats the burst above
// over many signatures on one server. A submission whose store look-up
// ran before the leader's entry was written, and whose in-flight check
// ran after the leader was delivered, finds neither — it must look
// again, not search again. One burst rarely lands in that window; a few
// hundred reliably do.
func TestInferenceServerSearchesEachSignatureOnce(t *testing.T) {
	srv := infServer(t, store.New(), 12)
	ctx := context.Background()
	const bursts, n = 300, 16
	for b := 0; b < bursts; b++ {
		req := icRequest()
		req.Signature = fmt.Sprintf("IC/layers=%d", b)
		outs := make([]<-chan InferOutcome, n)
		for i := range outs {
			outs[i] = srv.Submit(ctx, req)
		}
		uncached := 0
		for _, ch := range outs {
			o := <-ch
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			if !o.Cached {
				uncached++
			}
		}
		if uncached != 1 {
			t.Fatalf("burst %d: %d uncached tuning runs for identical requests, want exactly 1", b, uncached)
		}
	}
}

func TestInferenceServerRejectsEmptySignature(t *testing.T) {
	srv := infServer(t, store.New(), 4)
	out := <-srv.Submit(context.Background(), InferRequest{FLOPsPerSample: 1e8, Params: 1e6})
	if out.Err == nil {
		t.Error("empty signature accepted")
	}
}

func TestInferenceServerDeterministicAcrossRuns(t *testing.T) {
	run := func() store.Entry {
		st := store.New()
		srv := infServer(t, st, 16)
		out := <-srv.Submit(context.Background(), icRequest())
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		return out.Entry
	}
	a, b := run(), run()
	if a.Objective != b.Objective || a.Throughput != b.Throughput {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestInferenceServerOptionValidation(t *testing.T) {
	w := workload.MustNew("IC", 1)
	space, _ := w.InferenceSpace(device.I7())
	if _, err := NewInferenceServer(InferenceServerOptions{Space: nil, Store: store.New()}); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := NewInferenceServer(InferenceServerOptions{Space: space, Store: nil}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewInferenceServer(InferenceServerOptions{Space: space, Store: store.New(), Metric: "x"}); err == nil {
		t.Error("bad metric accepted")
	}
	if _, err := NewInferenceServer(InferenceServerOptions{Space: space, Store: store.New(), Algo: "nope"}); err != nil {
		// Algo is validated lazily at tune time; construction succeeds.
		t.Errorf("construction failed unexpectedly: %v", err)
	}
}

func smallOptions(id string) Options {
	return Options{
		Workload:       workload.MustNew(id, 1),
		SystemParams:   true,
		InferenceAware: true,
		InitialConfigs: 4,
		Rungs:          4,
		MaxBrackets:    2,
		InferTrials:    8,
		Seed:           7,
	}
}

func TestTuneEndToEnd(t *testing.T) {
	res, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun == 0 {
		t.Fatal("no trials ran")
	}
	if res.BestConfig == nil {
		t.Fatal("no best config")
	}
	if res.BestAccuracy <= 0.1 {
		t.Errorf("best accuracy %v at chance level", res.BestAccuracy)
	}
	if res.TuningDuration <= 0 || res.TuningEnergyKJ <= 0 {
		t.Error("tuning cost not accounted")
	}
	// The EdgeTune output must include inference recommendations.
	rec := res.Recommendation
	if rec.Signature == "" || rec.Config[workload.ParamInferBatch] < 1 {
		t.Errorf("missing inference recommendation: %+v", rec)
	}
	if rec.Device != device.I7().Profile.Name {
		t.Errorf("recommendation device = %q, want default i7", rec.Device)
	}
	// Containment (§3.3): inference tuning fits within training trials.
	if res.ContainmentViolations > 0 {
		t.Errorf("%d containment violations: inference tuning exceeded its training trial", res.ContainmentViolations)
	}
	if len(res.Trials) != res.TrialsRun {
		t.Error("trial records inconsistent with TrialsRun")
	}
	// Successive halving at eta 2: each bracket trains 4, 2, 1, 1
	// configurations, and no rung's budget is below the previous one's.
	perRung := map[[2]int]int{}
	for i, tr := range res.Trials {
		perRung[[2]int{tr.Bracket, tr.Rung}]++
		if i > 0 && tr.Bracket == res.Trials[i-1].Bracket && tr.Alloc.Cost() < res.Trials[i-1].Alloc.Cost() {
			t.Errorf("trial %d: budget fell from %v to %v within a bracket", i, res.Trials[i-1].Alloc, tr.Alloc)
		}
	}
	for bracket := 0; bracket < 2; bracket++ {
		for rung, want := range []int{4, 2, 1, 1} {
			if got := perRung[[2]int{bracket, rung}]; got != want {
				t.Errorf("bracket %d rung %d trained %d configurations, want %d", bracket, rung, got, want)
			}
		}
	}
}

func TestTuneDeterministic(t *testing.T) {
	a, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestScore != b.BestScore || a.TuningDuration != b.TuningDuration {
		t.Errorf("same-seed tuning runs differ: %v/%v vs %v/%v",
			a.BestScore, a.TuningDuration, b.BestScore, b.TuningDuration)
	}
}

func TestTuneCacheReuse(t *testing.T) {
	res, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	// IC has only 3 architectures (18/34/50 layers); with >= 8 trials
	// the historical store must get hits.
	if res.CacheHits == 0 {
		t.Errorf("no cache hits in %d trials over 3 architectures", res.TrialsRun)
	}
}

func TestTuneValidation(t *testing.T) {
	if _, err := Tune(context.Background(), Options{}); err == nil {
		t.Error("missing workload accepted")
	}
	bad := smallOptions("IC")
	bad.Metric = "latency"
	if _, err := Tune(context.Background(), bad); err == nil {
		t.Error("bad metric accepted")
	}
}

func TestTuneHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Tune(ctx, smallOptions("IC")); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestTuneEnergyMetric(t *testing.T) {
	opts := smallOptions("IC")
	opts.Metric = MetricEnergy
	res, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != MetricEnergy {
		t.Error("metric not propagated")
	}
	if res.Recommendation.EnergyPerSampleJ <= 0 {
		t.Error("energy recommendation missing")
	}
}

func TestTuneInferenceUnaware(t *testing.T) {
	opts := smallOptions("IC")
	opts.InferenceAware = false
	res, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recommendation.Signature != "" {
		t.Error("inference-unaware run produced a recommendation")
	}
	if res.InferTuningDuration != 0 {
		t.Error("inference tuning charged without the server")
	}
}

func TestTuneHierarchical(t *testing.T) {
	opts := smallOptions("IC")
	res, err := TuneHierarchical(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.BestConfig[workload.ParamGPUs]; !ok {
		t.Error("hierarchical stage 2 did not set the GPU count")
	}
	if res.TrialsRun <= 8 {
		t.Errorf("TrialsRun = %d, want stage-1 trials plus the 8-GPU sweep", res.TrialsRun)
	}
}

// TestOnefoldBeatsHierarchical encodes §4.1's claim: the onefold
// approach finds configurations at lower total tuning cost than tuning
// hyper then system parameters separately.
func TestOnefoldBeatsHierarchical(t *testing.T) {
	onefold, err := Tune(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := TuneHierarchical(context.Background(), smallOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	if onefold.TuningDuration >= hier.TuningDuration {
		t.Errorf("onefold %v not cheaper than hierarchical %v",
			onefold.TuningDuration, hier.TuningDuration)
	}
}

func TestTuneAllWorkloads(t *testing.T) {
	for _, id := range workload.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opts := smallOptions(id)
			opts.InitialConfigs = 3
			opts.Rungs = 3
			opts.MaxBrackets = 1
			res, err := Tune(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Workload != id {
				t.Errorf("workload = %q", res.Workload)
			}
			if res.Recommendation.Signature == "" {
				t.Error("no recommendation")
			}
		})
	}
}

func TestTuneGridInferenceAlgo(t *testing.T) {
	// §3.1: the inference server may use grid search when its space is
	// small while the model server runs BOHB.
	opts := smallOptions("IC")
	opts.InferAlgo = search.AlgoGrid
	res, err := Tune(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recommendation.Signature == "" {
		t.Error("grid inference tuning produced no recommendation")
	}
}
