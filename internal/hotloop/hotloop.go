// Package hotloop declares the pipeline's hot loops once. A loop is a
// stage name — the key of its prof.* gauges and of its row in the
// allocation ledger — plus a way to open it on self-contained throwaway
// state, so measuring never touches a job's own store, server, tracer or
// metrics, plus what one operation of it allocates. Two consumers range
// over the same table: a -profile job (the stages marked job) and the Go
// benchmarks in the root package.
//
// The table is the ledger: each row declares its loop's allocs/op and
// bytes/op, and TestStageAllocations fails when a measurement leaves
// them in either direction. Change a loop and its row changes with it;
// `go test -v -run TestStageAllocations ./internal/hotloop` prints the
// figures.
package hotloop

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/budget"
	"edgetune/internal/cluster"
	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/nn"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/prof"
	"edgetune/internal/obs/slo"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/tensor"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// The paper-scale ResNet18 every serving-side loop asks about.
const (
	flopsPerSample = 5.6e8
	params         = 11e6
)

// stage is one row of the table. open builds the loop's state and
// returns one operation of it and what releases the state. An op drops
// the errors its fixed inputs cannot produce; done drops those of
// closing state nobody will read again.
type stage struct {
	name string
	// job marks the stages a -profile job reports.
	job  bool
	open func() (op, done func(), err error)
	// allocs and bytes are what one operation allocates, averaged over
	// 32 by Measure and held there by TestStageAllocations.
	allocs int
	bytes  float64
}

func noClose() {}

var stages = []stage{
	{"nn.minibatch-step", true, openMiniBatchStep, 0, 0},
	{"perfmodel.infer-cost", true, openInferCost, 0, 0},
	{"trace.emit", true, openTraceEmit, 4, 264},
	{"store.put", true, openStorePut, 4, 352},
	{"serve.cache-hit", true, openCacheHit, 4, 528},
	{"search.tpe-search", false, openTPESearch, 7, 1816},
	{"trial.run", false, openTrialRun, 105, 6413.8},
	{"store.wal-append", false, openWALAppend, 14, 1128},
	{"cluster.dispatch", false, openClusterDispatch, 0, 0},
	{"flight.record", false, openFlightRecord, 0, 0},
	{"autoscale.evaluate", false, openAutoscaleEvaluate, 0, 0},
}

// JobStages lists the stages a -profile job reports, in table order.
func JobStages() []string {
	var out []string
	for _, s := range stages {
		if s.job {
			out = append(out, s.name)
		}
	}
	return out
}

// Open builds the named loop and returns one operation of it. The
// caller runs op as often as it likes, from one goroutine, and then
// calls done.
func Open(name string) (op, done func(), err error) {
	for _, s := range stages {
		if s.name == name {
			if op, done, err = s.open(); err != nil {
				return nil, nil, fmt.Errorf("hotloop: open %s: %w", name, err)
			}
			return op, done, nil
		}
	}
	return nil, nil, fmt.Errorf("hotloop: unknown stage %q", name)
}

// Measure opens each named loop in turn and probes it with
// prof.Measure over runs operations. A stage that is unknown, or whose
// state cannot be built, is an error: a missing probe is never a silent
// gap in the result.
func Measure(runs int, names ...string) ([]prof.Probe, error) {
	probes := make([]prof.Probe, 0, len(names))
	for _, name := range names {
		op, done, err := Open(name)
		if err != nil {
			return nil, err
		}
		probes = append(probes, prof.Measure(name, runs, op))
		done()
	}
	return probes, nil
}

// One training mini-batch step — zero grads, forward, loss, backward,
// optimiser — on the 18-layer IC model at batch 32, the loop every
// simulated trial epoch runs.
func openMiniBatchStep() (func(), func(), error) {
	rng := sim.NewRNG(7)
	w, err := workload.New("IC", 7)
	if err != nil {
		return nil, nil, err
	}
	net, err := w.BuildModel(search.Config{workload.ParamLayers: 18}, rng)
	if err != nil {
		return nil, nil, err
	}
	x := tensor.Randn(32, 24, 1, rng)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	opt, err := nn.NewSGD(0.01, 0.9, 0)
	if err != nil {
		return nil, nil, err
	}
	return func() {
		_, _ = net.TrainStep(opt, x, labels) // labels are in range by construction
	}, noClose, nil
}

// One analytical inference-cost evaluation: the innermost call of every
// inference trial and every recommendation estimate.
func openInferCost() (func(), func(), error) {
	dev := device.I7()
	spec := dev.DefaultSpec(flopsPerSample, params)
	return func() {
		_, _ = dev.Estimate(spec) // the device's own default spec is valid
	}, noClose, nil
}

// Span emission — root, attributed child, two ends — the tracer work
// every trial and every serve request pays when tracing is on. The
// tracer's buffer grows geometrically; it is grown first to where the
// next growth is hundreds of records away, so the steady state is
// measured, not whichever copy falls in the window.
func openTraceEmit() (func(), func(), error) {
	tracer := obs.NewTracer()
	var seq uint64
	emit := func() {
		seq++
		root := tracer.Root(0, "hotloop", seq, 0)
		sp := root.Child("stage", 0, obs.Int("i", int64(seq)))
		sp.End(time.Duration(seq))
		root.End(time.Duration(seq))
	}
	for i := 0; i < 4096; i++ {
		emit()
	}
	return emit, noClose, nil
}

// An in-memory store write, the body of every recommendation persist.
func openStorePut() (func(), func(), error) {
	st := store.New()
	entry := store.Entry{Signature: "hotloop", Device: "i7",
		Config: search.Config{"batch": 16}, Throughput: 1}
	return func() {
		_ = st.Put(entry) // a signed entry with a config is valid
	}, noClose, nil
}

// inferenceSpace is the i7's inference search space.
func inferenceSpace(dev device.Device) (*search.Space, error) {
	w, err := workload.New("IC", 3)
	if err != nil {
		return nil, err
	}
	return w.InferenceSpace(dev)
}

// The inference server's whole request path — submit, admission, serve,
// deliver — on the cache-hit fast path, where the request resolves
// without touching a device. The server is wired as core.Tune wires it,
// with a registry-backed resilience recorder and an SLO evaluator, so
// what a hit records against its objectives is measured too.
func openCacheHit() (func(), func(), error) {
	dev := device.I7()
	space, err := inferenceSpace(dev)
	if err != nil {
		return nil, nil, err
	}
	st := store.New()
	if err := st.Put(store.Entry{Signature: "hotloop", Device: dev.Profile.Name,
		Config: search.Config{"batch": 16}, Throughput: 100}); err != nil {
		return nil, nil, err
	}
	srv, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device: dev, Space: space, Store: st, Seed: 3,
		Recorder: counters.NewResilienceOn(obs.NewRegistry()), SLO: slo.NewEvaluator(),
	})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	req := core.InferRequest{Signature: "hotloop", FLOPsPerSample: flopsPerSample, Params: params}
	return func() {
		<-srv.Submit(ctx, req)
	}, srv.Close, nil
}

// One whole inference parameter search as the server runs it on a cache
// miss: a fresh BOHB sampler, then 24 × (SampleInto, Estimate on the
// emulated device, Observe). The sampler owns its model state
// (DESIGN.md §4.16) and proposes into one map the search reuses, so what
// the search allocates is the sampler itself and that map.
func openTPESearch() (func(), func(), error) {
	dev := device.I7()
	space, err := inferenceSpace(dev)
	if err != nil {
		return nil, nil, err
	}
	obj := core.Objective{Metric: core.MetricRuntime}
	return func() {
		sampler := search.NewTPESampler(space, 3, search.TPEOptions{})
		cfg := make(search.Config, space.Dim())
		for i := 0; i < 24; i++ {
			sampler.SampleInto(cfg)
			r, err := dev.Estimate(perfmodel.InferSpec{
				FLOPsPerSample: flopsPerSample,
				Params:         params,
				BatchSize:      int(cfg[workload.ParamInferBatch]),
				Cores:          int(cfg[workload.ParamCores]),
				FreqGHz:        cfg[workload.ParamFreq],
			})
			if err != nil {
				return // a proposal from the device's own space is valid
			}
			sampler.Observe(search.Observation{Config: cfg, Score: obj.InferScore(r), Budget: 1})
		}
	}, noClose, nil
}

// Whole training trials as a rung runs them — build the network,
// featurise the subset, train, evaluate — on a scratch the trial before
// warmed (DESIGN.md §4.15): one IC and one NLP trial per operation, the
// NLP trial at another stride each time, so a featurisation kept on the
// heap shows. What a trial leaves to the collector is the few dozen
// small objects a network is made of, not the storage under it or its
// features.
func openTrialRun() (func(), func(), error) {
	alloc := budget.Allocation{Epochs: 2, DataFraction: 0.3}
	nlp := search.Config{workload.ParamStride: 4, workload.ParamTrainBatch: 64, workload.ParamGPUs: 1}
	var trials []func() error
	for _, c := range []struct {
		id  string
		cfg search.Config
	}{
		{"IC", search.Config{workload.ParamLayers: 34, workload.ParamTrainBatch: 128, workload.ParamGPUs: 1}},
		{"NLP", nlp},
	} {
		w, err := workload.New(c.id, 7)
		if err != nil {
			return nil, nil, err
		}
		r, err := trial.NewRunner(w, perfmodel.GPUProfile{}, 7)
		if err != nil {
			return nil, nil, err
		}
		req := trial.Request{Config: c.cfg, Alloc: alloc}
		run := func() error {
			_, err := r.Run(context.Background(), req)
			return err
		}
		if err := run(); err != nil { // makes and sizes the scratch
			return nil, nil, err
		}
		trials = append(trials, run)
	}
	op := 0
	return func() {
		nlp[workload.ParamStride] = float64(1 + op%32) // the request holds this map
		op++
		for _, run := range trials {
			_ = run() // the same requests just ran cleanly above, but for the stride
		}
	}, noClose, nil
}

// One durable-store put: encode, checksum, append, and fsync-policy
// bookkeeping on a real WAL file.
func openWALAppend() (func(), func(), error) {
	dir, err := os.MkdirTemp("", "edgetune-hotloop-*")
	if err != nil {
		return nil, nil, err
	}
	dur, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: filepath.Join(dir, "store.json"),
		// No compaction inside the probe window: a snapshot write
		// mid-measure would bill an entire rewrite to one put.
		SnapshotEvery: 1 << 30,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	st := dur.Store()
	seq := 0
	put := func() {
		seq++
		_ = st.Put(store.Entry{ // valid entry; a disk that refuses the append is not the loop measured
			Signature: fmt.Sprintf("wal-%d", seq),
			Device:    "bench",
			Config:    search.Config{"batch": 16},
		})
	}
	// Past the index's early doublings, so the window holds appends only.
	for i := 0; i < 256; i++ {
		put()
	}
	return put, func() {
		_ = dur.Abandon() // throwaway state: no final snapshot, and the files go next
		os.RemoveAll(dir)
	}, nil
}

// Consistent-hash job routing, the ring lookup every cluster submission
// starts with: 64 vnodes on each of four shards.
func openClusterDispatch() (func(), func(), error) {
	ring := cluster.NewRing(64)
	for _, s := range []string{"shard0", "shard1", "shard2", "shard3"} {
		ring.Add(s)
	}
	key := "tenant-3/job-42"
	return func() { ring.Owner(key) }, noClose, nil
}

// One flight-recorder event record. The recorder is on for every span,
// admission verdict, breaker transition and WAL append, so "always-on"
// is only honest at zero heap allocations per record (the table holds
// this stage to exactly 0). The ring is filled past its capacity first:
// the steady state is the overwrite path, what a long run's recorder
// spends its life doing.
func openFlightRecord() (func(), func(), error) {
	const slots = 1024
	fr := flight.New(slots)
	seq := int64(0)
	record := func() {
		seq++
		fr.Record(time.Duration(seq)*time.Millisecond, flight.KindSpan, "hotloop", "serve", seq, 64)
	}
	for i := 0; i < 2*slots; i++ {
		record()
	}
	return record, noClose, nil
}

// The autoscaling controller's steady-state decision path: a fresh
// controller fed the no-decision signal, the shape nearly every tick
// takes.
func openAutoscaleEvaluate() (func(), func(), error) {
	ctl, err := autoscale.New(autoscale.Config{Min: 1, Max: 4, Window: 32})
	if err != nil {
		return nil, nil, err
	}
	tick := 0
	return func() {
		tick++
		ctl.Evaluate(autoscale.Signals{
			At:       time.Duration(tick) * time.Second,
			InSystem: 8, QueueLimit: 64, Replicas: 1, Healthy: 1, Good: true,
		})
	}, noClose, nil
}
