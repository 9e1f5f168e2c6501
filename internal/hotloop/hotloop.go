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
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
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
	{"trace.leaf", false, openTraceLeaf, 0, 0},
	{"store.put", true, openStorePut, 3, 272},
	{"serve.cache-hit", true, openCacheHit, 0, 0},
	{"search.tpe-search", false, openTPESearch, 0, 0},
	{"trial.run", false, openTrialRun, 15, 1072},
	{"workload.new", false, openWorkloadNew, 10, 5264},
	{"store.wal-append", false, openWALAppend, 10, 616},
	{"store.checkpoint", false, openCheckpoint, 0, 0},
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
// every trial and every serve request pays when tracing is on: the two
// *Spans, the child's attribute slice and its boxed int. The tracer
// keeps records in blocks of up to 1024 (DESIGN.md §4.8); the fill here,
// and the allocation ledger's warm-up after it, leave the window hundreds
// of records short of the next block, so none falls in it.
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

// One leaf span — a "mini-batch" with two small int attributes, as
// every step group of a traced trial records it. The leaf builds no
// *Span and its attributes are copied into the tracer's own blocks, so
// it allocates nothing; the fill here, and the allocation ledger's
// warm-up after it, leave the window where neither its record blocks nor
// its attribute blocks start a new one.
func openTraceLeaf() (func(), func(), error) {
	tracer := obs.NewTracer()
	epoch := tracer.Root(0, "epoch", 0, 0)
	var seq int64
	leaf := func() {
		seq++
		at := time.Duration(seq)
		epoch.Leaf("mini-batch", at, at+1, obs.Int("step", seq%64), obs.Int("steps", 1))
	}
	for i := 0; i < 1024; i++ {
		leaf()
	}
	return leaf, noClose, nil
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
// what a hit records against its objectives is measured too. The entry
// the hits read is the one the server stored for the same request's
// miss, so it has the shape every stored result has.
func openCacheHit() (func(), func(), error) {
	dev := device.I7()
	space, err := inferenceSpace(dev)
	if err != nil {
		return nil, nil, err
	}
	srv, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device: dev, Space: space, Store: store.New(), Seed: 3,
		Recorder: counters.NewResilienceOn(obs.NewRegistry()), SLO: slo.NewEvaluator(),
	})
	if err != nil {
		return nil, nil, err
	}
	ctx := context.Background()
	req := core.InferRequest{Signature: "IC/layers=18", FLOPsPerSample: flopsPerSample, Params: params}
	if out := <-srv.Submit(ctx, req); out.Err != nil || out.Cached {
		srv.Close()
		return nil, nil, fmt.Errorf("seeding miss: cached=%v err=%v", out.Cached, out.Err)
	}
	return func() {
		<-srv.Submit(ctx, req)
	}, srv.Close, nil
}

// One whole inference parameter search as the server runs it on a cache
// miss: the worker's BOHB sampler Reset to the request's seed, then
// 24 × (SampleInto, Estimate on the emulated device, Observe), keeping
// the incumbent in the second of the worker's two maps. The sampler
// keeps the buffers its model grew (DESIGN.md §4.16) and the maps are
// reused, so the search allocates nothing; what a miss keeps of it is
// the one clone of the incumbent the server makes after the loop.
func openTPESearch() (func(), func(), error) {
	dev := device.I7()
	space, err := inferenceSpace(dev)
	if err != nil {
		return nil, nil, err
	}
	obj := core.Objective{Metric: core.MetricRuntime}
	sampler := search.NewTPESampler(space, 3, search.TPEOptions{})
	cfg, best := make(search.Config, space.Dim()), make(search.Config, space.Dim())
	return func() {
		sampler.Reset(3)
		bestScore := math.Inf(1)
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
			score := obj.InferScore(r)
			sampler.Observe(search.Observation{Config: cfg, Score: score, Budget: 1})
			if score < bestScore {
				bestScore = score
				maps.Copy(best, cfg)
			}
		}
	}, noClose, nil
}

// Whole training trials as a rung runs them — build the network,
// featurise the subset, train, evaluate — on a scratch the trial before
// warmed (DESIGN.md §4.15): one IC and one NLP trial per operation, the
// NLP trial at another stride each time, so a featurisation kept on the
// heap shows. The network — its layer values, its layer and parameter
// slices, and the storage under them — and the features live on the
// scratch; what a trial leaves to the collector is a handful of small
// headers around the training (the RNG, the optimiser, the subset
// views, the configuration's key).
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

// A tuning job's workload as edgetune.Tune builds and releases it: the
// IC split regenerated, at the next seed each time, into the storage
// the job before released. What is left to the collector is the teacher
// that labels the data, the two Dataset headers and the Workload.
func openWorkloadNew() (func(), func(), error) {
	seed := uint64(7)
	w, err := workload.New("IC", seed)
	if err != nil {
		return nil, nil, err
	}
	w.Release() // the split the window's first job regenerates into
	return func() {
		seed++
		w, _ = workload.New("IC", seed) // a known ID
		w.Release()
	}, noClose, nil
}

// throwawayDurable opens a durable store in a fresh temporary
// directory, with compaction out of the way: a snapshot write inside a
// probe window would bill an entire rewrite to one operation. done
// abandons the store (no final snapshot) and removes the directory.
func throwawayDurable() (st *store.Store, done func(), err error) {
	dir, err := os.MkdirTemp("", "edgetune-hotloop-*")
	if err != nil {
		return nil, nil, err
	}
	dur, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath:  filepath.Join(dir, "store.json"),
		SnapshotEvery: 1 << 30,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return dur.Store(), func() {
		_ = dur.Abandon() // throwaway state: the files go next
		os.RemoveAll(dir)
	}, nil
}

// One durable-store put: encode, checksum, append, and fsync-policy
// bookkeeping on a real WAL file. The puts cycle through 256 signatures,
// all in the index before the window opens, so every measured put
// replaces an entry and the window holds appends only: a growing index
// splits a table of its map (≈ 14 allocations, 213 KB) at counts the
// keys' hashes decide, and the ledger's time-bounded warm-up can leave
// the window on one. The numbers start at 256 so that boxing one for
// Sprintf allocates, as a fresh signature's does.
func openWALAppend() (func(), func(), error) {
	st, done, err := throwawayDurable()
	if err != nil {
		return nil, nil, err
	}
	seq := 0
	put := func() {
		seq++
		_ = st.Put(store.Entry{ // valid entry; a disk that refuses the append is not the loop measured
			Signature: fmt.Sprintf("wal-%d", 256+seq%256),
			Device:    "bench",
			Config:    search.Config{"batch": 16},
		})
	}
	for i := 0; i < 256; i++ {
		put()
	}
	return put, done, nil
}

// One rung checkpoint on a durable store: a ≈ 20 KB progress blob, the
// size of a late NLP job's, framed into the store's frame buffer,
// appended, fsynced, and kept as the key's blob, while the blob it
// replaces comes back, as a job writes its next checkpoint into it. The
// job checkpoints after every rung, so this is the durable write a
// tuning run makes most bytes of. Two copies of the blob take turns.
func openCheckpoint() (func(), func(), error) {
	st, done, err := throwawayDurable()
	if err != nil {
		return nil, nil, err
	}
	blob := []byte(`{"version":2,"trials":[` +
		strings.Repeat(`{"config":{"lr":0.01,"stride":4},"score":0.8125,"outcome":"ok"},`, 320) + `{}]}`)
	const key = "tune/NLP/hotloop"
	// The first save sizes the frame buffer and the stored blob.
	if _, err := st.SaveCheckpoint(key, bytes.Clone(blob)); err != nil {
		done()
		return nil, nil, err
	}
	return func() {
		if prev, err := st.SaveCheckpoint(key, blob); err == nil { // a blob the first save accepted
			blob = prev
		}
	}, done, nil
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
	ctl, err := autoscale.New(autoscale.Config{Min: 1, Max: 4})
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
