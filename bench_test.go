package edgetune_test

// This file regenerates every table and figure of the paper's
// evaluation as Go benchmarks: one benchmark per experiment, reporting
// the headline simulated metrics via b.ReportMetric so `go test
// -bench=.` produces the full reproduction. The same tables are
// printable with `go run ./cmd/benchtab`.
//
// Experiment harnesses are memoised, so iterations beyond the first are
// free and benchmark numbers reflect lookup cost; the interesting
// output is the reported custom metrics, not ns/op.

import (
	"context"
	"strconv"
	"testing"

	"edgetune/internal/budget"
	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/experiments"
	"edgetune/internal/hotloop"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// runExperiment executes a memoised experiment once per iteration.
func runExperiment(b *testing.B, f func() (experiments.Table, error)) experiments.Table {
	b.Helper()
	var (
		tab experiments.Table
		err error
	)
	for i := 0; i < b.N; i++ {
		tab, err = f()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// metric parses a numeric cell from an experiment table for reporting.
func metric(b *testing.B, tab experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("%s[%d][%d] = %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func BenchmarkFig01PerfCounters(b *testing.B) {
	tab := runExperiment(b, experiments.Fig01PerfCounters)
	b.ReportMetric(float64(len(tab.Rows)), "events")
}

func BenchmarkFig02ModelHyper(b *testing.B) {
	tab := runExperiment(b, experiments.Fig02ModelHyper)
	b.ReportMetric(metric(b, tab, 0, 1), "train-min/18-layers")
	b.ReportMetric(metric(b, tab, 2, 1), "train-min/50-layers")
	b.ReportMetric(metric(b, tab, 0, 3), "imgs-per-sec/18-layers")
}

func BenchmarkFig03TrainingHyper(b *testing.B) {
	tab := runExperiment(b, experiments.Fig03TrainingHyper)
	b.ReportMetric(metric(b, tab, 2, 2), "train-min/batch1024")
	b.ReportMetric(metric(b, tab, 4, 2), "imgs-per-sec/batch10")
}

func BenchmarkFig04TrainSystem(b *testing.B) {
	tab := runExperiment(b, experiments.Fig04TrainSystem)
	slow := metric(b, tab, 2, 2) / metric(b, tab, 0, 2)
	b.ReportMetric(slow, "batch32-8gpu-slowdown")
}

func BenchmarkFig05InferSystem(b *testing.B) {
	tab := runExperiment(b, experiments.Fig05InferSystem)
	gain := metric(b, tab, 5, 2) / metric(b, tab, 4, 2)
	b.ReportMetric(gain, "batch10-4v2core-gain")
}

func BenchmarkFig06Pipelining(b *testing.B) {
	tab := runExperiment(b, experiments.Fig06Pipelining)
	b.ReportMetric(float64(len(tab.Rows)), "trials")
}

func BenchmarkFig08Batching(b *testing.B) {
	tab := runExperiment(b, experiments.Fig08Batching)
	b.ReportMetric(metric(b, tab, 0, 2), "server-split")
	b.ReportMetric(metric(b, tab, 1, 2), "stream-cap")
}

func BenchmarkFig09HierVsOnefold(b *testing.B) {
	tab := runExperiment(b, experiments.Fig09HierVsOnefold)
	b.ReportMetric(metric(b, tab, 0, 2), "onefold-min")
	b.ReportMetric(metric(b, tab, 1, 2), "hierarchical-min")
}

func BenchmarkFig10SearchAlgos(b *testing.B) {
	tab := runExperiment(b, experiments.Fig10SearchAlgos)
	b.ReportMetric(metric(b, tab, 2, 2), "bohb-tail-objective")
	b.ReportMetric(metric(b, tab, 1, 2), "random-tail-objective")
}

func BenchmarkFig11BudgetFlow(b *testing.B) {
	tab := runExperiment(b, experiments.Fig11BudgetFlow)
	b.ReportMetric(float64(len(tab.Rows)), "iterations")
}

func BenchmarkFig12Convergence(b *testing.B) {
	tab := runExperiment(b, experiments.Fig12Convergence)
	b.ReportMetric(float64(len(tab.Rows)), "sampled-trials")
}

func BenchmarkFig13BudgetAll(b *testing.B) {
	runExperiment(b, experiments.Fig13BudgetAll)
	agg, err := experiments.Fig13Aggregates()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(agg.DurationM["OD"][budget.KindEpochs]/agg.DurationM["OD"][budget.KindMulti], "od-epochs-vs-multi")
}

func BenchmarkFig14VsTune(b *testing.B) {
	tab := runExperiment(b, experiments.Fig14VsTune)
	b.ReportMetric(metric(b, tab, 0, 3), "ic-duration-diff-pct")
	b.ReportMetric(metric(b, tab, 0, 6), "ic-energy-diff-pct")
}

func BenchmarkFig15EstimationError(b *testing.B) {
	tab := runExperiment(b, experiments.Fig15EstimationError)
	b.ReportMetric(metric(b, tab, 0, 3), "throughput-median-pe")
	b.ReportMetric(metric(b, tab, 1, 3), "energy-median-pe")
}

func BenchmarkFig16Objectives(b *testing.B) {
	tab := runExperiment(b, experiments.Fig16Objectives)
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

func BenchmarkFig17VsHyperPower(b *testing.B) {
	tab := runExperiment(b, experiments.Fig17VsHyperPower)
	b.ReportMetric(metric(b, tab, 0, 2), "edgetune-ic-min")
	b.ReportMetric(metric(b, tab, 1, 2), "hyperpower-ic-min")
}

func BenchmarkTable1Workloads(b *testing.B) {
	tab := runExperiment(b, experiments.Table1Workloads)
	b.ReportMetric(float64(len(tab.Rows)), "workloads")
}

func BenchmarkTable2Features(b *testing.B) {
	tab := runExperiment(b, experiments.Table2Features)
	b.ReportMetric(float64(len(tab.Rows)), "systems")
}

// --- substrate micro-benchmarks ---------------------------------------------

// benchStage times one loop of the internal/hotloop table — the same
// loop, on the same state, that a -profile job and the benchtab ledger
// measure the allocations of.
func benchStage(b *testing.B, stage string) {
	op, done, err := hotloop.Open(stage)
	if err != nil {
		b.Fatal(err)
	}
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTrainingStep(b *testing.B) { benchStage(b, "nn.minibatch-step") }

// BenchmarkInferenceSearch is one cache miss's 24-trial search, as a
// server worker runs it on its reused sampler and maps.
func BenchmarkInferenceSearch(b *testing.B) { benchStage(b, "search.tpe-search") }

func BenchmarkInferenceEstimate(b *testing.B) {
	prof := perfmodel.CPUProfile{
		Name: "bench", MaxCores: 4, FlopsPerCorePerGHz: 4e9,
		MinFreqGHz: 1, MaxFreqGHz: 3.5, MemBytesPerSec: 1.2e10,
		BytesPerFLOP: 0.42, BatchSetupSec: 0.005,
		MemBatchKnee: 40, MemPressureFactor: 0.8,
		IdlePowerW: 2, CorePowerW: 3.5,
	}
	spec := perfmodel.InferSpec{
		FLOPsPerSample: 5.6e8, Params: 11e6,
		BatchSize: 16, Cores: 4, FreqGHz: 3.5,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.InferenceCost(spec, prof); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPESample(b *testing.B) {
	space, err := search.NewSpace(
		search.Param{Name: "x", Kind: search.Float, Min: 0, Max: 1},
		search.Param{Name: "y", Kind: search.Float, Min: 0, Max: 1},
		search.Param{Name: "z", Kind: search.Int, Min: 1, Max: 100, Log: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	tpe := search.NewTPESampler(space, 1, search.TPEOptions{})
	rng := sim.NewRNG(2)
	for i := 0; i < 60; i++ {
		cfg := space.Sample(rng)
		tpe.Observe(search.Observation{Config: cfg, Score: rng.Float64(), Budget: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tpe.Sample()
	}
}

func BenchmarkStoreLookup(b *testing.B) {
	st := store.New()
	for i := 0; i < 100; i++ {
		if err := st.Put(store.Entry{
			Signature: "sig" + strconv.Itoa(i),
			Device:    "i7",
			Config:    search.Config{"infer_batch": float64(i)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get("sig50", "i7"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitSaturated measures the shed path: with the only worker
// held by a long-running request and the intake queue full, every
// further Submit must be rejected in constant time without blocking the
// caller or leaking a goroutine per rejection.
func BenchmarkSubmitSaturated(b *testing.B) {
	w := workload.MustNew("IC", 1)
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device:     dev,
		Space:      space,
		Metric:     core.MetricRuntime,
		Trials:     2_000_000,
		Workers:    1,
		QueueLimit: 4,
		Store:      store.New(),
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		srv.Submit(ctx, core.InferRequest{
			Signature:      "IC/layers=" + strconv.Itoa(18+i),
			FLOPsPerSample: 1.8e9,
			Params:         11e6,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		<-srv.Submit(ctx, core.InferRequest{
			Signature:      "IC/layers=999",
			FLOPsPerSample: 1.8e9,
			Params:         11e6,
		})
	}
}

func BenchmarkInferenceServerCacheHit(b *testing.B) { benchStage(b, "serve.cache-hit") }

// BenchmarkTraceEmission measures span emission — root, attributed
// child, two ends — the tracer cost every traced trial pays.
func BenchmarkTraceEmission(b *testing.B) { benchStage(b, "trace.emit") }

// BenchmarkWALAppend measures one durable-store put on a real WAL
// file: encode, checksum, append.
func BenchmarkWALAppend(b *testing.B) { benchStage(b, "store.wal-append") }

// BenchmarkClusterDispatch measures the consistent-hash owner lookup
// every cluster submission starts with.
func BenchmarkClusterDispatch(b *testing.B) { benchStage(b, "cluster.dispatch") }
