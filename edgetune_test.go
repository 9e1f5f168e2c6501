package edgetune

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgetune/internal/fault"
	"edgetune/internal/store"
)

func quickJob() Job {
	return Job{
		Workload:        "IC",
		Configs:         3,
		Rungs:           3,
		Brackets:        1,
		InferenceTrials: 8,
		Seed:            7,
	}
}

func TestWorkloadsAndDevices(t *testing.T) {
	ws := Workloads()
	if len(ws) != 4 {
		t.Fatalf("Workloads() = %v, want 4 entries", ws)
	}
	ds := Devices()
	if len(ds) != 3 {
		t.Fatalf("Devices() = %v, want 3 entries", ds)
	}
}

func TestTuneQuickJob(t *testing.T) {
	rep, err := Tune(context.Background(), quickJob())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "IC" || rep.Device != "i7" {
		t.Errorf("report identity = %s/%s", rep.Workload, rep.Device)
	}
	if rep.TrialsRun == 0 || rep.TuningMinutes <= 0 || rep.TuningEnergyKJ <= 0 {
		t.Errorf("implausible accounting: %+v", rep)
	}
	rec := rep.Recommendation
	if rec.BatchSize < 1 || rec.Cores < 1 || rec.FrequencyGHz <= 0 {
		t.Errorf("missing inference recommendation: %+v", rec)
	}
	if rec.Throughput <= 0 || rec.EnergyPerSampleJ <= 0 {
		t.Errorf("recommendation lacks predicted metrics: %+v", rec)
	}
	if len(rep.BestConfig) == 0 {
		t.Error("empty best config")
	}
}

func TestTuneValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Tune(ctx, Job{}); err == nil {
		t.Error("missing workload accepted")
	}
	if _, err := Tune(ctx, Job{Workload: "XX"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := Tune(ctx, Job{Workload: "IC", Device: "tpu"}); err == nil {
		t.Error("unknown device accepted")
	}
	if _, err := Tune(ctx, Job{Workload: "IC", Metric: "latency"}); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := Tune(ctx, Job{Workload: "IC", Budget: "time"}); err == nil {
		t.Error("unknown budget accepted")
	}
}

func TestTuneWithoutInference(t *testing.T) {
	job := quickJob()
	job.WithoutInference = true
	rep, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recommendation.BatchSize != 0 {
		t.Error("inference-unaware job produced a recommendation")
	}
}

func TestTuneHierarchicalMode(t *testing.T) {
	job := quickJob()
	job.Hierarchical = true
	rep, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.BestConfig["gpus"]; !ok {
		t.Error("hierarchical job did not tune GPUs")
	}
}

func TestTunePersistentStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	job := quickJob()
	job.StorePath = path

	first, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	// The second run must reuse the persisted inference results: every
	// architecture lookup is a hit.
	if second.CacheMisses != 0 {
		t.Errorf("second run had %d cache misses, want 0 (store persisted)", second.CacheMisses)
	}
	if second.CacheHits <= first.CacheHits-first.CacheMisses {
		t.Errorf("second run cache hits %d did not grow", second.CacheHits)
	}
}

// TestTuneOpensPlainSnapshot: a StorePath holding a snapshot written
// before the write-ahead log existed — the current document or the older
// bare entry array, no .wal beside it — opens as the durable store's
// first snapshot, reports the recovery, and its entries are reused.
func TestTuneOpensPlainSnapshot(t *testing.T) {
	dir := t.TempDir()
	job := quickJob()
	job.StorePath = filepath.Join(dir, "seed.json")
	if _, err := Tune(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	// What Tune left at StorePath is the current document, alone.
	current, err := os.ReadFile(job.StorePath)
	if err != nil {
		t.Fatal(err)
	}
	history := readStore(t, job.StorePath)
	bare, err := json.Marshal(history.Entries())
	if err != nil {
		t.Fatal(err)
	}
	for name, document := range map[string][]byte{"current": current, "legacy": bare} {
		t.Run(name, func(t *testing.T) {
			job.StorePath = filepath.Join(dir, name+".json")
			if err := os.WriteFile(job.StorePath, document, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Tune(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			sr := rep.StoreRecovery
			if sr == nil || sr.SnapshotSource != "snapshot" || sr.Entries != history.Len() {
				t.Errorf("StoreRecovery = %+v, want the %d snapshot entries", sr, history.Len())
			}
			if rep.CacheMisses != 0 {
				t.Errorf("%d cache misses over a store that already held every architecture", rep.CacheMisses)
			}
		})
	}
}

// readStore reads what a job left at path the way the next job will,
// and leaves the files as they were.
func readStore(t *testing.T, path string) *store.Store {
	t.Helper()
	d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	return d.Store()
}

func TestTuneDifferentDevicesDifferentRecommendations(t *testing.T) {
	ctx := context.Background()
	recs := make(map[string]InferenceRecommendation)
	for _, dev := range Devices() {
		job := quickJob()
		job.Device = dev
		rep, err := Tune(ctx, job)
		if err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
		if rep.Recommendation.Device != dev {
			t.Errorf("recommendation device = %q, want %q", rep.Recommendation.Device, dev)
		}
		recs[dev] = rep.Recommendation
	}
	if recs["i7"].Throughput <= recs["rpi3b+"].Throughput {
		t.Error("i7 recommendation should out-run the Pi")
	}
}

func chaosJob() Job {
	job := quickJob()
	job.Brackets = 2
	job.Faults = FaultConfig{
		TrialCrash:   0.15,
		Straggler:    0.2,
		DeviceFlap:   0.1,
		DroppedReply: 0.2,
	}
	return job
}

// TestTuneFaultyJobDeterministicReplay: fault injection derives from
// the job seed, so two identical faulty jobs must produce byte-for-byte
// identical reports.
func TestTuneFaultyJobDeterministicReplay(t *testing.T) {
	run := func() []byte {
		rep, err := Tune(context.Background(), chaosJob())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed faulty jobs produced different reports:\n%s\n%s", a, b)
	}
	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Resilience.TotalFaults == 0 {
		t.Error("chaos job recorded no faults")
	}
	if rep.Recommendation.BatchSize < 1 {
		t.Error("chaos job produced no recommendation")
	}
}

func TestTuneFaultValidation(t *testing.T) {
	job := quickJob()
	job.Faults.TrialCrash = 1.5
	if _, err := Tune(context.Background(), job); err == nil {
		t.Error("out-of-range fault probability accepted")
	}
	job = quickJob()
	job.MaxTrialAttempts = -1
	if _, err := Tune(context.Background(), job); err == nil {
		t.Error("negative attempt cap accepted")
	}
}

// TestTuneRejectsNaNFaultProbability: a NaN compares false with every
// bound, so a check written as "below 0 or above 1" let it through and
// the class was silently off; the job must fail instead.
func TestTuneRejectsNaNFaultProbability(t *testing.T) {
	job := quickJob()
	job.Faults.TrialCrash = math.NaN()
	if _, err := Tune(context.Background(), job); err == nil || !strings.Contains(err.Error(), "trial-crash") {
		t.Errorf("Tune with a NaN trial-crash probability: err = %v, want one naming trial-crash", err)
	}
}

// TestTuneCheckpointJobCompletes: a checkpointing job with a persisted
// store finishes cleanly and leaves a durable completion marker — the
// final checkpoint — so a rerun of the identical job restores the
// outcome instead of re-tuning.
func TestTuneCheckpointJobCompletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	job := quickJob()
	job.StorePath = path
	job.Checkpoint = true
	rep, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resilience.ResumedRungs != 0 {
		t.Errorf("fresh job resumed %d rungs", rep.Resilience.ResumedRungs)
	}
	if keys := readStore(t, path).CheckpointKeys(); len(keys) != 1 {
		t.Errorf("completion checkpoint not persisted: %v", keys)
	}
	// Re-running the identical job restores the completed checkpoint:
	// same outcome, zero store misses, zero re-executed work.
	again, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheMisses != 0 {
		t.Errorf("second run missed the persisted store %d times", again.CacheMisses)
	}
	if again.Resilience.ResumedRungs == 0 {
		t.Error("second run did not restore the completed checkpoint")
	}
	if again.BestAccuracy != rep.BestAccuracy {
		t.Errorf("restored outcome diverged: %v != %v", again.BestAccuracy, rep.BestAccuracy)
	}
}

func TestPlanServer(t *testing.T) {
	plan, err := PlanServer(ServerScenario{
		Workload:        "IC",
		ModelConfig:     map[string]float64{"layers": 18},
		SamplesPerQuery: 64,
		PeriodSec:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Split < 1 || plan.Split > 64 {
		t.Errorf("split = %d out of range", plan.Split)
	}
	if !plan.Stable {
		t.Error("comfortable load reported unstable")
	}
	if _, err := PlanServer(ServerScenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
}

func TestPlanMultiStream(t *testing.T) {
	plan, err := PlanMultiStream(MultiStreamScenario{
		Workload:       "IC",
		ModelConfig:    map[string]float64{"layers": 18},
		ArrivalsPerSec: 40,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.BatchCap < 1 {
		t.Errorf("batch cap = %d", plan.BatchCap)
	}
	if plan.MeanResponseSec <= 0 || plan.P95ResponseSec < plan.MeanResponseSec {
		t.Errorf("implausible response stats: %+v", plan)
	}
	if _, err := PlanMultiStream(MultiStreamScenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := PlanMultiStream(MultiStreamScenario{
		Workload:       "IC",
		ModelConfig:    map[string]float64{"layers": 18},
		ArrivalsPerSec: -1,
	}); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestReportDeterministic: two independent same-seed runs of a faulted
// job must marshal to byte-identical JSON reports — the determinism
// contract covers metrics, fault counts, and the trace-fed accounting,
// not just the recommendation.
func TestReportDeterministic(t *testing.T) {
	job := quickJob()
	job.Faults = FaultConfig{TrialCrash: 0.2, Straggler: 0.2, DroppedReply: 0.1}
	marshal := func() []byte {
		t.Helper()
		rep, err := Tune(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed reports differ:\n%s\n---\n%s", a, b)
	}
}

// TestReportJSONRoundTrip: a report with every snapshot section filled —
// faults, a recovered durable store, resumed checkpoints — survives
// json.Marshal and json.Unmarshal unchanged, so a saved -json report
// reloads as the value the run returned.
func TestReportJSONRoundTrip(t *testing.T) {
	job := chaosJob()
	job.Faults.StoreWrite = 0.1
	job.StorePath = filepath.Join(t.TempDir(), "history.json")
	job.Checkpoint = true
	var rep *Report
	for run := 0; run < 2; run++ { // the second run recovers the first's store
		var err error
		if rep, err = Tune(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if sr := rep.StoreRecovery; sr == nil || sr.Entries == 0 || sr.Checkpoints == 0 ||
		rep.Resilience.TotalFaults == 0 || rep.Resilience.ResumedRungs == 0 ||
		len(rep.Metrics.Counters) == 0 || len(rep.Metrics.Gauges) == 0 || len(rep.Metrics.Histograms) == 0 {
		t.Fatalf("the job left a report section empty: %+v", rep)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, rep) {
		t.Errorf("report changed through JSON:\n got %+v\nwant %+v", back, *rep)
	}
}

// TestReportDecodesEarlierSpelling: reports written before the snapshot
// sections took their camelCase tags spelled every key as its Go field
// name; the decoder matches keys case-insensitively, so they still load.
func TestReportDecodesEarlierSpelling(t *testing.T) {
	const earlier = `{
		"Workload": "IC",
		"Metrics": {
			"Counters": [{"Name": "trial.runs", "Value": 12}],
			"Gauges": [{"Name": "core.best_accuracy", "Value": 0.75}],
			"Histograms": [{"Name": "trial.minutes", "Count": 3, "P50": 1.5,
				"Buckets": [{"LE": "+Inf", "Count": 3}]}]
		},
		"Resilience": {"TotalFaults": 5, "Retries": 2,
			"Faults": [{"Class": "trial-crash", "Count": 3}, {"Class": "straggler", "Count": 2}]},
		"StoreRecovery": {"SnapshotSource": "previous", "RecordsReplayed": 4, "Entries": 7, "Checkpoints": 1}
	}`
	var rep Report
	if err := json.Unmarshal([]byte(earlier), &rep); err != nil {
		t.Fatal(err)
	}
	want := Report{
		Workload: "IC",
		Metrics: MetricsReport{
			Counters: []MetricCounter{{Name: "trial.runs", Value: 12}},
			Gauges:   []MetricGauge{{Name: "core.best_accuracy", Value: 0.75}},
			Histograms: []MetricHistogram{{Name: "trial.minutes", Count: 3, P50: 1.5,
				Buckets: []MetricBucket{{LE: "+Inf", Count: 3}}}},
		},
		Resilience: ResilienceReport{TotalFaults: 5, Retries: 2,
			Faults: []FaultCount{{Class: "trial-crash", Count: 3}, {Class: "straggler", Count: 2}}},
		StoreRecovery: &StoreRecovery{SnapshotSource: "previous", RecordsReplayed: 4, Entries: 7, Checkpoints: 1},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("decoded %+v\nwant    %+v", rep, want)
	}
	if rep.Metrics.Counter("trial.runs") != 12 || rep.Resilience.FaultCount("straggler") != 2 {
		t.Error("the snapshot lookups do not see the decoded values")
	}
}

// TestJobDecodesEarlierFaultSpelling: job files written while Faults was
// a struct of its own spell its keys as Go field names ("TrialCrash");
// the decoder matches the camelCase tags case-insensitively, so they
// still load. A job with every fault field set survives the encoder,
// which writes camelCase.
func TestJobDecodesEarlierFaultSpelling(t *testing.T) {
	data, err := os.ReadFile("examples/chaos/job.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"TrialCrash"`)) {
		t.Fatal("the chaos job no longer spells its keys as Go field names")
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	want := FaultConfig{TrialCrash: 0.15, TrialNaN: 0.05, Straggler: 0.2,
		DeviceFlap: 0.1, StoreWrite: 0.1, DroppedReply: 0.15}
	if !reflect.DeepEqual(job.Faults, want) {
		t.Errorf("decoded faults %+v\nwant           %+v", job.Faults, want)
	}

	full := Job{Workload: "IC"}
	fields := reflect.ValueOf(&full.Faults).Elem()
	set := 0
	for i := 0; i < fields.NumField(); i++ {
		if f := fields.Field(i); f.Kind() == reflect.Float64 {
			set++
			f.SetFloat(float64(set) / 32)
		}
	}
	if want := len(fault.Classes()) + 2; set != want { // the classes and two factors
		t.Fatalf("set %d fault fields, want %d", set, want)
	}
	enc, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enc, []byte(`"trialCrash":`)) {
		t.Errorf("the encoder does not write camelCase fault keys: %s", enc)
	}
	var back Job
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, full) {
		t.Errorf("round trip gave %+v\nwant          %+v", back.Faults, full.Faults)
	}
}
