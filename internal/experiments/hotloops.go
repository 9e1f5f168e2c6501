package experiments

// Hot-loop benchmarks: one experiment per loop the ROADMAP's
// zero-alloc work targets — the nn mini-batch step, perfmodel
// evaluation, the admission/serve path, the inference search, a whole
// training trial, trace emission, WAL append, and cluster dispatch.
// Each runs the loop enough times for benchtab's wall-clock to be
// meaningful, reports deterministic rows, and stamps
// Table.AllocsPerOp/BytesPerOp from a prof.Measure probe so `tracetool
// check-bench` can gate allocation regressions per stage.

import (
	"context"
	"fmt"
	"os"
	"time"

	"edgetune/internal/budget"
	"edgetune/internal/cluster"
	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/nn"
	"edgetune/internal/obs"
	"edgetune/internal/obs/prof"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/tensor"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// probeRuns is the alloc-probe sample count shared by the hot-loop
// experiments: large enough to average out stray runtime allocations,
// small enough to keep benchtab fast.
const probeRuns = 32

var nnMiniBatchMemo memo[Table]

// BenchmarkNNMiniBatch measures one training mini-batch step — zero
// grads, forward, loss, backward, optimiser — on the 18-layer IC
// model at batch 32, the exact loop every simulated trial epoch runs.
func BenchmarkNNMiniBatch() (Table, error) {
	return nnMiniBatchMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkNNMiniBatch",
			Title:  "training mini-batch step (18-layer IC model, batch 32)",
			Header: []string{"layers", "batch", "steps", "final-loss"},
		}
		rng := sim.NewRNG(7)
		w, err := workload.New("IC", 7)
		if err != nil {
			return Table{}, err
		}
		net, err := w.BuildModel(search.Config{workload.ParamLayers: 18}, rng)
		if err != nil {
			return Table{}, err
		}
		x := tensor.Randn(32, 24, 1, rng)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		opt, err := nn.NewSGD(0.01, 0.9, 0)
		if err != nil {
			return Table{}, err
		}
		// Deterministic rows first: the loss trajectory is a fixed
		// function of the seed. The alloc probe runs after and its
		// extra steps never feed back into the rows.
		const steps = 24
		var loss float64
		for i := 0; i < steps; i++ {
			if loss, err = net.TrainStep(opt, x, labels); err != nil {
				return Table{}, err
			}
		}
		t.Rows = append(t.Rows, []string{"18", "32", fmt.Sprint(steps), f3(loss)})
		p := prof.Measure("nn.minibatch-step", probeRuns, func() {
			_, _ = net.TrainStep(opt, x, labels) // the same batch just stepped cleanly above
		})
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		t.Notes = []string{"alloc probe covers zero-grad + forward + loss + backward + SGD step"}
		return t, nil
	})
}

var perfmodelEvalMemo memo[Table]

// BenchmarkPerfmodelEval measures one analytical inference-cost
// evaluation per built-in device — the innermost call of every
// inference trial and every recommendation estimate.
func BenchmarkPerfmodelEval() (Table, error) {
	return perfmodelEvalMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkPerfmodelEval",
			Title:  "perfmodel inference-cost evaluation per device",
			Header: []string{"device", "batch", "throughput", "J/sample"},
		}
		devices := []device.Device{device.I7(), device.ARMv7(), device.RPi3BPlus()}
		for _, dev := range devices {
			spec := dev.DefaultSpec(5.6e8, 11e6)
			spec.BatchSize = 16
			r, err := dev.Estimate(spec)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				dev.Profile.Name, "16", f1(r.Throughput), f3(r.EnergyPerSampleJ),
			})
		}
		spec := devices[0].DefaultSpec(5.6e8, 11e6)
		p := prof.Measure("perfmodel.infer-cost", probeRuns, func() {
			devices[0].Estimate(spec)
		})
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		return t, nil
	})
}

var admissionServeMemo memo[Table]

// BenchmarkAdmissionServe measures the inference server's full
// request path — submit, admission, serve, deliver — on the cache-hit
// fast path, where the request resolves without touching a device.
func BenchmarkAdmissionServe() (Table, error) {
	return admissionServeMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkAdmissionServe",
			Title:  "inference server admission + serve (cache-hit path)",
			Header: []string{"requests", "cache-hits", "errors"},
		}
		dev := device.I7()
		w, err := workload.New("IC", 3)
		if err != nil {
			return Table{}, err
		}
		space, err := w.InferenceSpace(dev)
		if err != nil {
			return Table{}, err
		}
		st := store.New()
		st.Put(store.Entry{Signature: "hotloop", Device: dev.Profile.Name,
			Config: search.Config{"batch": 16}, Throughput: 100})
		srv, err := core.NewInferenceServer(core.InferenceServerOptions{
			Device: dev, Space: space, Store: st, Seed: 3,
			RateLimit: 0, // unlimited: the probe measures serving, not throttling
		})
		if err != nil {
			return Table{}, err
		}
		defer srv.Close()
		ctx := context.Background()
		req := core.InferRequest{Signature: "hotloop", FLOPsPerSample: 5.6e8, Params: 11e6}
		const requests = 512
		hits, errs := 0, 0
		for i := 0; i < requests; i++ {
			out := <-srv.Submit(ctx, req)
			switch {
			case out.Err != nil:
				errs++
			case out.Cached:
				hits++
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(requests), fmt.Sprint(hits), fmt.Sprint(errs)})
		p := prof.Measure("serve.cache-hit", probeRuns, func() {
			<-srv.Submit(ctx, req)
		})
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		return t, nil
	})
}

var tpeSearchMemo memo[Table]

// BenchmarkTPESearch measures one whole inference parameter search as
// the server runs it on a cache miss: a fresh BOHB sampler, then 24 ×
// (Sample, Estimate on the emulated device, Observe). The sampler owns
// its model state (DESIGN.md §4.16), so what the search allocates is
// the sampler itself and one Config per proposal.
func BenchmarkTPESearch() (Table, error) {
	return tpeSearchMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkTPESearch",
			Title:  "24-trial BOHB inference search (i7, runtime objective)",
			Header: []string{"trials", "best-batch", "best-cores", "best-GHz", "best-score"},
		}
		dev := device.I7()
		w, err := workload.New("IC", 3)
		if err != nil {
			return Table{}, err
		}
		space, err := w.InferenceSpace(dev)
		if err != nil {
			return Table{}, err
		}
		obj := core.Objective{Metric: core.MetricRuntime}
		const trials = 24
		searchOnce := func() (best search.Config, bestScore float64, err error) {
			sampler := search.NewTPESampler(space, 3, search.TPEOptions{})
			for i := 0; i < trials; i++ {
				cfg := sampler.Sample()
				r, err := dev.Estimate(perfmodel.InferSpec{
					FLOPsPerSample: 5.6e8,
					Params:         11e6,
					BatchSize:      int(cfg[workload.ParamInferBatch]),
					Cores:          int(cfg[workload.ParamCores]),
					FreqGHz:        cfg[workload.ParamFreq],
				})
				if err != nil {
					return nil, 0, err
				}
				score := obj.InferScore(r)
				sampler.Observe(search.Observation{Config: cfg, Score: score, Budget: 1})
				if best == nil || score < bestScore {
					best, bestScore = cfg, score
				}
			}
			return best, bestScore, nil
		}
		best, score, err := searchOnce()
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(trials),
			fmt.Sprint(best[workload.ParamInferBatch]), fmt.Sprint(best[workload.ParamCores]),
			f3(best[workload.ParamFreq]), fmt.Sprintf("%.6g", score),
		})
		p := prof.Measure("search.tpe-search", probeRuns, func() { _, _, _ = searchOnce() })
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		t.Notes = []string{"alloc probe covers a fresh sampler plus 24 × (Sample, Estimate, Observe)"}
		return t, nil
	})
}

var trialRunMemo memo[Table]

// BenchmarkTrialRun measures whole training trials as a rung runs them
// — build the network, featurise the subset, train, evaluate — on a
// scratch the trial before warmed (DESIGN.md §4.15): one IC and one NLP
// trial per operation, the NLP trial at another stride each time, so a
// featurisation kept on the heap shows. What a trial leaves to the
// collector is the few dozen small objects a network is made of, not
// the storage under it or its features.
func BenchmarkTrialRun() (Table, error) {
	return trialRunMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkTrialRun",
			Title:  "training trial on a warm scratch (one IC + one NLP trial)",
			Header: []string{"workload", "config", "epochs", "fraction", "steps", "accuracy"},
		}
		alloc := budget.Allocation{Epochs: 2, DataFraction: 0.3}
		nlp := search.Config{workload.ParamStride: 4, workload.ParamTrainBatch: 64, workload.ParamGPUs: 1}
		var trials []func() (trial.Result, error)
		for _, c := range []struct {
			id  string
			cfg search.Config
		}{
			{"IC", search.Config{workload.ParamLayers: 34, workload.ParamTrainBatch: 128, workload.ParamGPUs: 1}},
			{"NLP", nlp},
		} {
			w, err := workload.New(c.id, 7)
			if err != nil {
				return Table{}, err
			}
			r, err := trial.NewRunner(w, perfmodel.GPUProfile{}, 7)
			if err != nil {
				return Table{}, err
			}
			req := trial.Request{Config: c.cfg, Alloc: alloc}
			run := func() (trial.Result, error) { return r.Run(context.Background(), req) }
			res, err := run() // makes and sizes the scratch
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{c.id, c.cfg.Key(), fmt.Sprint(alloc.Epochs), f3(alloc.DataFraction),
				fmt.Sprint(res.Steps), f3(res.Accuracy)})
			trials = append(trials, run)
		}
		op := 0
		p := prof.Measure("trial.run", probeRuns, func() {
			nlp[workload.ParamStride] = float64(1 + op%32) // the request holds this map
			op++
			for _, run := range trials {
				_, _ = run() // the same requests just ran cleanly above, but for the stride
			}
		})
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		t.Notes = []string{"alloc probe covers model build + featurised subset + train + evaluate + simulated cost, for both trials; the NLP stride walks 1-32"}
		return t, nil
	})
}

var traceEmitMemo memo[Table]

// BenchmarkTraceEmit measures span emission — root, attributed child,
// two ends — the tracer work every trial and every serve request pays
// when tracing is on.
func BenchmarkTraceEmit() (Table, error) {
	return traceEmitMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkTraceEmit",
			Title:  "trace emission (root + child span with attrs)",
			Header: []string{"spans", "per-emit"},
		}
		tracer := obs.NewTracer()
		var seq uint64
		emit := func() {
			seq++
			root := tracer.Root(0, "hotloop", seq, 0)
			sp := root.Child("stage", 0, obs.Int("i", int64(seq)))
			sp.End(time.Duration(seq))
			root.End(time.Duration(seq))
		}
		const emits = 100_000
		for i := 0; i < emits; i++ {
			emit()
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(emits * 2), "2"})
		p := prof.Measure("trace.emit", probeRuns, emit)
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		return t, nil
	})
}

var walAppendMemo memo[Table]

// BenchmarkWALAppend measures one durable-store put: encode, checksum,
// append, and fsync-policy bookkeeping on a real WAL file.
func BenchmarkWALAppend() (Table, error) {
	return walAppendMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkWALAppend",
			Title:  "durable store WAL append (put + checksummed journal write)",
			Header: []string{"records", "entries"},
		}
		dir, err := os.MkdirTemp("", "edgetune-walbench-*")
		if err != nil {
			return Table{}, err
		}
		defer os.RemoveAll(dir)
		dur, err := store.OpenDurable(store.DurableOptions{
			SnapshotPath: dir + "/store.json",
			// No compaction inside the probe window: a snapshot write
			// mid-measure would bill an entire rewrite to one put.
			SnapshotEvery: 1 << 30,
		})
		if err != nil {
			return Table{}, err
		}
		st := dur.Store()
		seq := 0
		put := func() {
			seq++
			st.Put(store.Entry{
				Signature: fmt.Sprintf("wal-%d", seq),
				Device:    "bench",
				Config:    search.Config{"batch": 16},
			})
		}
		const records = 2048
		for i := 0; i < records; i++ {
			put()
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(records), fmt.Sprint(st.Len())})
		p := prof.Measure("store.wal-append", probeRuns, put)
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		if err := dur.Close(); err != nil {
			return Table{}, err
		}
		return t, nil
	})
}

var clusterDispatchMemo memo[Table]

// BenchmarkClusterDispatch measures consistent-hash job routing — the
// ring lookup every cluster submission starts with — and reports the
// key distribution it produces, which is a pure function of the ring.
func BenchmarkClusterDispatch() (Table, error) {
	return clusterDispatchMemo.do(func() (Table, error) {
		t := Table{
			ID:     "BenchmarkClusterDispatch",
			Title:  "cluster dispatch (consistent-hash ring owner lookup)",
			Header: []string{"shard", "keys-of-100k"},
		}
		ring := cluster.NewRing(64)
		shards := []string{"shard0", "shard1", "shard2", "shard3"}
		for _, s := range shards {
			ring.Add(s)
		}
		counts := map[string]int{}
		const keys = 100_000
		for i := 0; i < keys; i++ {
			counts[ring.Owner(fmt.Sprintf("tenant-%d/job-%d", i%17, i))]++
		}
		for _, s := range shards {
			t.Rows = append(t.Rows, []string{s, fmt.Sprint(counts[s])})
		}
		key := "tenant-3/job-42"
		p := prof.Measure("cluster.dispatch", probeRuns, func() {
			ring.Owner(key)
		})
		t.stampProbe(p.Runs, p.AllocsPerOp, p.BytesPerOp)
		t.Notes = []string{"64 vnodes/shard keeps the 4-shard split within a few percent of uniform"}
		return t, nil
	})
}
