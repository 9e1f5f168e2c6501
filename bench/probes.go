package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtm "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgetune"
	"edgetune/internal/budget"
	"edgetune/internal/cluster"
	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/nn"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/slo"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/store"
	"edgetune/internal/tensor"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// perLayer is every per-layer metric, in the order it is printed. A
// layer is a package; each number is taken from outside it, by timing
// calls to its public functions at inputs the workload provides. Every
// workload reports every name in its traced run; 0 means the metric
// does not apply to that workload (no jobs in serve_*, no requests in
// tune_*).
var perLayer = []metricSpec{
	{"edgetune.tune_overhead_ms", "ms"},
	{"edgetune.allocs_per_job", "count"},
	{"core.tune_s", "s"},
	{"core.trials_per_job", "count"},
	{"core.serving_requests_per_job", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.sim_minutes_per_job", "min"},
	{"trial.run_ms_min", "ms"},
	{"trial.run_ms_max", "ms"},
	{"trial.steps_per_s", "1/s"},
	{"trial.allocs_per_step", "count"},
	{"nn.step_us", "us"},
	{"nn.step_allocs", "count"},
	{"nn.step_kb", "KB"},
	{"nn.forward_us", "us"},
	{"tensor.matmul_us", "us"},
	{"tensor.matmul_at_us", "us"},
	{"tensor.matmul_bt_us", "us"},
	{"tensor.matmul_allocs", "count"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"workload.build_model_us", "us"},
	{"workload.data_ms", "ms"},
	{"search.tpe_sample_us", "us"},
	{"search.tpe_sample_allocs", "count"},
	{"search.tpe_observe_us", "us"},
	{"device.estimate_ns", "ns"},
	{"device.estimate_allocs", "count"},
	{"core.submit_return_us_p50", "us"},
	{"core.await_us_p50", "us"},
	{"core.submit_hit_allocs", "count"},
	{"core.submit_miss_us_p50", "us"},
	{"core.submit_hit_us_p50", "us"},
	{"core.submit_miss_us_p90", "us"},
	{"core.submit_hit_us_p90", "us"},
	{"core.submit_miss_us_p99", "us"},
	{"core.submit_hit_us_p99", "us"},
	{"core.submit_miss_us_tail", "us"},
	{"core.submit_hit_us_tail", "us"},
	{"core.submit_reject_us", "us"},
	{"core.submit_reject_allocs", "count"},
	{"core.cached_share", "ratio"},
	{"core.coalesced_share", "ratio"},
	{"core.retuned_share", "ratio"},
	{"store.get_ns", "ns"},
	{"store.put_ns", "ns"},
	{"store.writebehind_put_ns", "ns"},
	{"store.durable_put_us", "us"},
	{"store.fs_syncs_per_put", "count"},
	{"store.fs_bytes_per_put", "B"},
	{"store.fs_sync_ms_p50", "ms"},
	{"store.fs_sync_busy_share", "ratio"},
	{"store.fs_write_busy_share", "ratio"},
	{"store.compactions", "count"},
	{"store.snapshot_bytes_written", "B"},
	{"store.close_ms", "ms"},
	{"store.open_recover_ms", "ms"},
	{"store.entries_recovered", "count"},
	{"obs.span_ns", "ns"},
	{"obs.span_allocs", "count"},
	{"obs.flight_record_ns", "ns"},
	{"obs.counter_add_ns", "ns"},
	{"obs.slo_record_ns", "ns"},
	{"obs.snapshot_us", "us"},
	{"obs.on_overhead_ratio", "ratio"},
	{"cluster.owner_ns", "ns"},
	{"cluster.new_ms", "ms"},
	{"cluster.close_ms", "ms"},
	{"cluster.shard_balance", "ratio"},
	{"cluster.failovers", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.goroutines_leaked", "count"},
	{"bench.op_us_p50", "us"},
	{"bench.ops_per_s", "1/s"},
	{"bench.trials_per_s", "1/s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.timer_ns", "ns"},
	{"bench.unattributed_share", "ratio"},
}

// zeroLayerMetrics returns a metrics map with every per-layer name
// present, so a workload only fills in what applies to it.
func zeroLayerMetrics() metrics {
	m := make(metrics, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}

// ---- memory and runtime accounting ------------------------------------

type memMark struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.Mallocs, ms.NumGC}
}

func (a memMark) sub(b memMark) memMark {
	return memMark{a.totalAlloc - b.totalAlloc, a.mallocs - b.mallocs, a.numGC - b.numGC}
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []rtm.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtm.Read(s)
	if s[0].Value.Kind() == rtm.KindFloat64 && s[1].Value.Kind() == rtm.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// heapSampler polls the live heap every 50 ms and keeps the peak. It
// reads runtime/metrics, which does not stop the world.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtm.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			rtm.Read(s)
			if s[0].Value.Kind() == rtm.KindUint64 && s[0].Value.Uint64() > h.peak.Load() {
				h.peak.Store(s[0].Value.Uint64())
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampler (once) and returns the peak it saw, in MB.
func (h *heapSampler) stop() float64 {
	h.once.Do(func() { close(h.quit) })
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// leakedGoroutines reports how many goroutines outlived a workload's
// teardown, giving exiting ones up to a second to finish.
func leakedGoroutines(before int) int {
	for i := 0; ; i++ {
		n := runtime.NumGoroutine() - before
		if n <= 0 || i == 100 {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ---- the probe helper ---------------------------------------------------

// prober times calls. Each probe is a child span of one "probe" root.
type prober struct {
	rec    *recorder
	root   int
	budget time.Duration // wall time one probe may measure for
}

func newProber(cfg config, rec *recorder) *prober {
	p := &prober{rec: rec, root: rec.begin(0, "probe", 0), budget: 100 * time.Millisecond}
	if cfg.tiny {
		p.budget = 2 * time.Millisecond
	}
	return p
}

func (p *prober) done() { p.rec.end(p.root) }

// probeResult is one probe's cost per call.
type probeResult struct {
	ns     float64 // median over batches of wall ns per call
	allocs float64 // heap allocations per call
	kb     float64 // KB allocated per call
}

// time runs fn repeatedly for the probe budget, in batches sized to
// about a millisecond so that the timer is a small part of each sample,
// and returns the median batch's cost per call. Allocation counts are
// MemStats deltas over all batches.
func (p *prober) time(name string, fn func()) probeResult {
	id := p.rec.begin(p.root, name, 0)
	defer p.rec.end(id)
	fn() // warm caches and lazy initialisation
	t0 := time.Now()
	fn()
	one := time.Since(t0)
	batch := int(max(1, time.Millisecond/max(one, time.Nanosecond)))
	var samples []float64
	calls := 0
	mem := readMem()
	for start := time.Now(); time.Since(start) < p.budget || len(samples) < 3; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
		calls += batch
	}
	d := readMem().sub(mem)
	return probeResult{median(samples), float64(d.mallocs) / float64(calls), float64(d.totalAlloc) / 1024 / float64(calls)}
}

// once times a single call of something too slow or too stateful to
// repeat, in milliseconds.
func (p *prober) once(name string, fn func() error) (float64, error) {
	id := p.rec.begin(p.root, name, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	p.rec.end(id)
	return ms(d), err
}

// ---- layer probes -------------------------------------------------------

// probeInputs is what the workload hands the probes, so that each layer
// is measured at the sizes the workload runs it at.
type probeInputs struct {
	w   *workload.Workload
	cfg search.Config // a joint training configuration of w
	// trials are the trial requests to run for the trial-layer numbers:
	// the workload's own recorded trials (tune_*), or the first and last
	// rung of the multi-budget strategy (serve_*).
	trials []trial.Request
	seed   uint64
	// inference picks the search probe's space: the inference space at 12
	// observations (serve_*) or the training space at 60 (tune_*).
	inference bool
	// storeEntries is the size the store reaches by the end of the run.
	storeEntries int
}

// defaultProbeInputs are the inputs of a workload that trains nothing
// itself: the IC family at its smallest depth.
func defaultProbeInputs(storeEntries int) (probeInputs, error) {
	w, err := workload.New("IC", 1^0x9e3779b9)
	if err != nil {
		return probeInputs{}, err
	}
	cfg := search.Config{workload.ParamLayers: 18, workload.ParamTrainBatch: 64, workload.ParamGPUs: 1}
	strat, err := budget.New("")
	if err != nil {
		return probeInputs{}, err
	}
	return probeInputs{
		w: w, cfg: cfg, seed: 1, inference: true, storeEntries: storeEntries,
		trials: []trial.Request{{Config: cfg, Alloc: strat.At(1)}, {Config: cfg, Alloc: strat.At(6)}},
	}, nil
}

// runProbes measures every layer that can be measured without the
// workload's own system and fills the corresponding metrics. It returns
// the seconds the trial probe spent inside trial.Runner.Run.
func runProbes(cfg config, rec *recorder, in probeInputs, m metrics) (trialS float64, err error) {
	p := newProber(cfg, rec)
	defer p.done()
	if trialS, err = probeTrial(p, in, m); err != nil {
		return 0, err
	}
	if err := probeModel(p, in, m); err != nil {
		return 0, err
	}
	if err := probeSearch(p, in, m); err != nil {
		return 0, err
	}
	if err := probeStore(cfg, p, in, m); err != nil {
		return 0, err
	}
	if err := probeServerEdges(p, in, m); err != nil {
		return 0, err
	}
	probeObs(p, m)
	if err := probeCluster(cfg, p, m); err != nil {
		return 0, err
	}
	m["bench.timer_ns"] = p.time("bench.timer", func() { _ = time.Since(time.Now()) }).ns
	return trialS, nil
}

// probeTrial runs the given trials through trial.Runner and returns the
// seconds they took together.
func probeTrial(p *prober, in probeInputs, m metrics) (totalS float64, err error) {
	runner, err := trial.NewRunner(in.w, perfmodel.GPUProfile{}, in.seed)
	if err != nil {
		return 0, err
	}
	id := p.rec.begin(p.root, "trial.Run", 0)
	defer p.rec.end(id)
	mem := readMem()
	minMs, maxMs, steps := math.Inf(1), 0.0, 0
	for _, req := range in.trials {
		t0 := time.Now()
		res, err := runner.Run(context.Background(), req)
		if err != nil {
			return 0, fmt.Errorf("trial probe: %w", err)
		}
		d := time.Since(t0)
		totalS += d.Seconds()
		minMs, maxMs = min(minMs, ms(d)), max(maxMs, ms(d))
		steps += res.Steps
	}
	m["trial.run_ms_min"], m["trial.run_ms_max"] = minMs, maxMs
	m["trial.steps_per_s"] = float64(steps) / totalS
	m["trial.allocs_per_step"] = float64(readMem().sub(mem).mallocs) / float64(max(steps, 1))
	return totalS, nil
}

// probeModel measures workload, nn and tensor at the workload's model.
func probeModel(p *prober, in probeInputs, m metrics) error {
	w := in.w
	net, err := w.BuildModel(in.cfg, sim.NewRNG(in.seed))
	if err != nil {
		return err
	}
	m["workload.build_model_us"] = p.time("workload.BuildModel", func() {
		_, _ = w.BuildModel(in.cfg, sim.NewRNG(in.seed)) // error checked above
	}).ns / 1e3
	train, _, err := w.Data(in.cfg)
	if err != nil {
		return err
	}
	m["workload.data_ms"] = p.time("workload.Data", func() { _, _, _ = w.Data(in.cfg) }).ns / 1e6

	batch := min(int(in.cfg[workload.ParamTrainBatch]), train.Len())
	x := tensor.New(batch, train.X.Cols)
	copy(x.Data, train.X.Data[:batch*train.X.Cols])
	labels := train.Labels[:batch]
	opt, err := nn.NewSGD(0.018, 0.9, 0)
	if err != nil {
		return err
	}
	var stepErr error
	step := p.time("nn.step", func() {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, grad, err := nn.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			stepErr = err
			return
		}
		net.Backward(grad)
		opt.Step(net.Params())
	})
	if stepErr != nil {
		return stepErr
	}
	m["nn.step_us"], m["nn.step_allocs"], m["nn.step_kb"] = step.ns/1e3, step.allocs, step.kb
	m["nn.forward_us"] = p.time("nn.Forward", func() { net.Forward(x, false) }).ns / 1e3

	// The model's dominant matmul: the widest Dense layer it exposes, at
	// the training batch size — forward (x·W), weight gradient (xᵀ·g) and
	// input gradient (g·Wᵀ).
	in_, out := 0, 0
	for _, l := range net.Layers() {
		if d, ok := l.(*nn.Dense); ok && d.In()*d.OutDim(0) > in_*out {
			in_, out = d.In(), d.OutDim(0)
		}
	}
	if in_ == 0 {
		return fmt.Errorf("model of %s exposes no Dense layer", w.ID)
	}
	rng := sim.NewRNG(in.seed)
	a, wt, g := tensor.Randn(batch, in_, 1, rng), tensor.Randn(in_, out, 1, rng), tensor.Randn(batch, out, 1, rng)
	mm := p.time("tensor.MatMul", func() { tensor.MatMul(a, wt) })
	m["tensor.matmul_us"], m["tensor.matmul_allocs"] = mm.ns/1e3, mm.allocs
	m["tensor.matmul_gflops"] = 2 * float64(batch) * float64(in_) * float64(out) / mm.ns
	m["tensor.matmul_at_us"] = p.time("tensor.MatMulAT", func() { tensor.MatMulAT(a, g) }).ns / 1e3
	m["tensor.matmul_bt_us"] = p.time("tensor.MatMulBT", func() { tensor.MatMulBT(g, wt) }).ns / 1e3
	return nil
}

// probeSearch measures the TPE sampler and the device estimate.
func probeSearch(p *prober, in probeInputs, m metrics) error {
	dev := device.I7()
	space, nObs := (*search.Space)(nil), 60
	var err error
	if in.inference {
		space, err = in.w.InferenceSpace(dev)
		nObs = 12
	} else {
		space, err = in.w.TrainSpace(true)
	}
	if err != nil {
		return err
	}
	tpe := search.NewTPESampler(space, in.seed, search.TPEOptions{})
	rng := sim.NewRNG(in.seed + 1)
	for i := 0; i < nObs; i++ {
		tpe.Observe(search.Observation{Config: space.Sample(rng), Score: rng.Float64(), Budget: 1})
	}
	s := p.time("search.Sample", func() { tpe.Sample() })
	m["search.tpe_sample_us"], m["search.tpe_sample_allocs"] = s.ns/1e3, s.allocs
	// Observe grows the model it is measured on, so each batch observes
	// into a fresh sampler of the same size.
	cfgs := make([]search.Config, 64)
	for i := range cfgs {
		cfgs[i] = space.Sample(rng)
	}
	fresh := search.NewTPESampler(space, in.seed, search.TPEOptions{})
	i := 0
	m["search.tpe_observe_us"] = p.time("search.Observe", func() {
		if i%len(cfgs) == 0 {
			fresh = search.NewTPESampler(space, in.seed, search.TPEOptions{})
		}
		fresh.Observe(search.Observation{Config: cfgs[i%len(cfgs)], Score: 0.5, Budget: 1})
		i++
	}).ns / 1e3

	flops, params, err := in.w.PaperCost(in.cfg)
	if err != nil {
		return err
	}
	spec := dev.DefaultSpec(flops, params)
	spec.BatchSize = 16
	if _, err := dev.Estimate(spec); err != nil {
		return err
	}
	e := p.time("device.Estimate", func() { _, _ = dev.Estimate(spec) })
	m["device.estimate_ns"], m["device.estimate_allocs"] = e.ns, e.allocs
	return nil
}

func probeEntry(i int) store.Entry {
	return store.Entry{
		Signature: "IC/layers=" + strconv.Itoa(i), Device: "i7",
		Config:     search.Config{workload.ParamInferBatch: 16, workload.ParamCores: 4, workload.ParamFreq: 3.5},
		Throughput: 100, EnergyPerSampleJ: 0.1, LatencySeconds: 0.16, Objective: 0.01, TrialsRun: 24,
	}
}

// probeStore measures the store's read and three write paths, and a
// durable store's filesystem traffic, close and recovery.
func probeStore(cfg config, p *prober, in probeInputs, m metrics) error {
	n := max(in.storeEntries, 1)
	st := store.New()
	for i := 0; i < n; i++ {
		if err := st.Put(probeEntry(i)); err != nil {
			return err
		}
	}
	sigs := make([]string, 256)
	for i := range sigs {
		sigs[i] = probeEntry(i * n / len(sigs)).Signature
	}
	i := 0
	m["store.get_ns"] = p.time("store.Get", func() { _, _ = st.Get(sigs[i%len(sigs)], "i7"); i++ }).ns
	i = n
	m["store.put_ns"] = p.time("store.Put", func() { _ = st.Put(probeEntry(i)); i++ }).ns

	wb := store.NewWriteBehind(store.New())
	i = 0
	m["store.writebehind_put_ns"] = p.time("store.WriteBehind.Put", func() { _ = wb.Put(probeEntry(i)); i++ }).ns
	if err := wb.Close(); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(cfg.scratch, "probe-store-")
	if err != nil {
		return err
	}
	cfs := newCountingFS(store.OSFS{}, p.rec)
	open := func() (*store.Durable, error) {
		return store.OpenDurable(store.DurableOptions{SnapshotPath: filepath.Join(dir, "store.json"), FS: cfs})
	}
	dur, err := open()
	if err != nil {
		return err
	}
	var putErr error
	puts := 0
	t0 := time.Now()
	dp := p.time("store.Durable.Put", func() {
		if err := dur.Store().Put(probeEntry(puts)); err != nil {
			putErr = err
		}
		puts++
	})
	wall := time.Since(t0)
	if putErr != nil {
		return putErr
	}
	fsAfterPuts := cfs.stats()
	m["store.durable_put_us"] = dp.ns / 1e3
	m["store.fs_syncs_per_put"] = float64(fsAfterPuts.Syncs) / float64(puts)
	m["store.fs_bytes_per_put"] = float64(fsAfterPuts.WriteBytes) / float64(puts)
	m["store.fs_sync_ms_p50"] = fsAfterPuts.syncP50Ms()
	m["store.fs_sync_busy_share"] = float64(fsAfterPuts.SyncNs) / float64(wall)
	m["store.fs_write_busy_share"] = float64(fsAfterPuts.WriteNs) / float64(wall)
	if m["store.close_ms"], err = p.once("store.Durable.Close", dur.Close); err != nil {
		return err
	}
	fsAfterClose := cfs.stats()
	m["store.compactions"] = float64(fsAfterClose.SnapshotWrites)
	m["store.snapshot_bytes_written"] = float64(fsAfterClose.SnapshotBytes)
	var re *store.Durable
	if m["store.open_recover_ms"], err = p.once("store.OpenDurable", func() (err error) { re, err = open(); return }); err != nil {
		return err
	}
	m["store.entries_recovered"] = float64(re.Store().Len())
	if re.Store().Len() != puts {
		return fmt.Errorf("store probe: reopened store holds %d entries, %d were put", re.Store().Len(), puts)
	}
	return re.Close()
}

// probeServerEdges measures the two Submit paths that never reach a
// worker: a cache hit's allocations on an idle server, and a rejection
// by a jammed one (one worker held by an endless search, queue full).
func probeServerEdges(p *prober, in probeInputs, m metrics) error {
	dev := device.I7()
	space, err := in.w.InferenceSpace(dev)
	if err != nil {
		return err
	}
	ctx := context.Background()
	req := core.InferRequest{Signature: "IC/layers=18", FLOPsPerSample: 5.6e8, Params: 11e6}

	idle, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device: dev, Space: space, Store: store.New(), Seed: in.seed,
		Recorder: counters.NewResilienceOn(obs.NewRegistry()), SLO: slo.NewEvaluator(),
	})
	if err != nil {
		return err
	}
	if out := <-idle.Submit(ctx, req); out.Err != nil {
		idle.Close()
		return out.Err
	}
	m["core.submit_hit_allocs"] = p.time("core.Submit(hit)", func() { <-idle.Submit(ctx, req) }).allocs
	idle.Close()

	jammed, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device: dev, Space: space, Store: store.New(), Seed: in.seed,
		Trials: 1 << 40, Workers: 1, QueueLimit: 4,
		Recorder: counters.NewResilienceOn(obs.NewRegistry()), SLO: slo.NewEvaluator(),
	})
	if err != nil {
		return err
	}
	defer jammed.Close()
	for i := 0; i < 8; i++ {
		r := req
		r.Signature = "IC/layers=" + strconv.Itoa(100+i)
		jammed.Submit(ctx, r)
	}
	r := req
	r.Signature = "IC/layers=999"
	if out := <-jammed.Submit(ctx, r); out.Err == nil {
		return fmt.Errorf("server probe: a jammed server admitted a request")
	}
	rej := p.time("core.Submit(reject)", func() { <-jammed.Submit(ctx, r) })
	m["core.submit_reject_us"], m["core.submit_reject_allocs"] = rej.ns/1e3, rej.allocs
	return nil
}

// probeObs measures the observability primitives both pipelines call.
func probeObs(p *prober, m metrics) {
	// A tracer keeps every span; a fresh one per batch of 4096 keeps the
	// probe's memory flat without timing the reset.
	tr, n := obs.NewTracer(), 0
	sp := p.time("obs.Span", func() {
		if n%4096 == 0 {
			tr = obs.NewTracer()
		}
		n++
		root := tr.Root(obs.TrackTuner, "bench", uint64(n), 0)
		c := root.Child("stage", 0, obs.Int("i", int64(n)))
		c.End(1)
		root.End(1)
	})
	m["obs.span_ns"], m["obs.span_allocs"] = sp.ns, sp.allocs
	fr := flight.New(0)
	m["obs.flight_record_ns"] = p.time("flight.Record", func() { fr.Record(1, flight.KindWAL, "append", "", 1, 64) }).ns
	reg := obs.NewRegistry()
	counters.NewResilienceOn(reg)
	h := reg.Histogram("serving.latency.ms", obs.LatencyBucketsMS)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
	}
	c := reg.Counter("serving.requests")
	m["obs.counter_add_ns"] = p.time("obs.Counter.Add", func() { c.Add(1) }).ns
	// An objective keeps every event; as with the tracer, a fresh one per
	// 65536 records bounds the probe's memory.
	ev := slo.NewEvaluator()
	o := ev.Register(slo.Spec{Name: "probe", Target: 0.99})
	n = 0
	m["obs.slo_record_ns"] = p.time("slo.Record", func() {
		if n%65536 == 0 {
			o = slo.NewEvaluator().Register(slo.Spec{Name: "probe", Target: 0.99})
		}
		n++
		o.Record(time.Duration(n), true)
	}).ns
	m["obs.snapshot_us"] = p.time("obs.Registry.Snapshot", func() { reg.Snapshot() }).ns / 1e3
}

// probeCluster measures the ring lookup and an empty cluster's start
// and stop.
func probeCluster(cfg config, p *prober, m metrics) error {
	ring := cluster.NewRing(0)
	ring.Add("shard0")
	ring.Add("shard1")
	keys := make([]string, 128)
	for i := range keys {
		keys[i] = "tenant-" + strconv.Itoa(i%17) + "/NLP"
	}
	i := 0
	m["cluster.owner_ns"] = p.time("cluster.Ring.Owner", func() { ring.Owner(keys[i%len(keys)]); i++ }).ns

	dir, err := os.MkdirTemp(cfg.scratch, "probe-cluster-")
	if err != nil {
		return err
	}
	var cl *edgetune.Cluster
	if m["cluster.new_ms"], err = p.once("edgetune.NewCluster", func() (err error) {
		cl, err = edgetune.NewCluster(edgetune.ClusterOptions{Shards: 2, Dir: dir, Flight: true})
		return
	}); err != nil {
		return err
	}
	m["cluster.close_ms"], err = p.once("edgetune.Cluster.Close", cl.Close)
	return err
}
