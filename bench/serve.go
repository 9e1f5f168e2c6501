package main

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// serveSpec is what differs between the two serving workloads.
type serveSpec struct {
	name string
	// freshOneIn is how often a request carries a never-seen signature:
	// 1 = always (serve_miss), 200 = one request in 200 (serve_mixed).
	freshOneIn int
	// perSecond is the requests one client's op list holds per nominal
	// second of run: at the declared 20 s, 15 000 misses or 1 000 000
	// mixed requests per client.
	perSecond float64
}

var (
	serveMiss  = serveSpec{"serve_miss", 1, 750}
	serveMixed = serveSpec{"serve_mixed", 200, 50000}
)

// requests is the length of each client's op list for this run.
func (spec serveSpec) requests(cfg config) int {
	return cfg.ops(spec.perSecond, 2000/cfg.clients)
}

// warmupMisses is the number of fresh requests (over all clients) each
// set-up serves before measuring: enough for the write-behind flusher,
// the WAL file and the heap to reach their steady state, and the pool
// serve_mixed's first hits draw from.
func warmupMisses(cfg config) int {
	if cfg.tiny {
		return 200
	}
	return 500
}

// serverSeed is the inference server's seed. It is a constant: the
// workload seed reaches the program only through generated requests.
const serverSeed = 1

// sampleEvery is the 1-in-N sampling of hits, both for checking a hit
// against the entry its miss returned and for recording hit spans, so
// that neither dominates a 2 µs operation.
const sampleEvery = 64

// serveSystem is an inference server over a WAL'd store, wired as
// core.Tune wires the server for a default job (registry-backed
// resilience recorder and SLO evaluator on, tracer and flight recorder
// off, default Workers / QueueLimit / Trials) and as edgetune.Tune
// opens the store for StoreWAL (default SnapshotEvery).
type serveSystem struct {
	path string
	fs   store.FS
	reg  *obs.Registry
	dur  *store.Durable
	srv  *core.InferenceServer
}

func openServe(cfg config, name string, fs store.FS) (*serveSystem, error) {
	dir, err := cfg.freshDir(name)
	if err != nil {
		return nil, err
	}
	s := &serveSystem{path: filepath.Join(dir, "store.json"), fs: fs, reg: obs.NewRegistry()}
	ev := slo.NewEvaluator()
	if s.dur, err = s.openStore(ev); err != nil {
		return nil, err
	}
	w, err := workload.New("IC", 1)
	if err != nil {
		return nil, err
	}
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		return nil, err
	}
	s.srv, err = core.NewInferenceServer(core.InferenceServerOptions{
		Device: dev, Space: space, Metric: core.MetricRuntime, Store: s.dur.Store(), Seed: serverSeed,
		Recorder: counters.NewResilienceOn(s.reg), SLO: ev,
	})
	if err != nil {
		s.dur.Close()
		return nil, err
	}
	return s, nil
}

func (s *serveSystem) openStore(ev *slo.Evaluator) (*store.Durable, error) {
	return store.OpenDurable(store.DurableOptions{SnapshotPath: s.path, FS: s.fs, Metrics: s.reg, SLO: ev})
}

// close drains the server and seals the store, returning how long the
// store's Close took.
func (s *serveSystem) close(rec *recorder) (time.Duration, error) {
	id := rec.begin(0, "core.InferenceServer.Drain", 0)
	err := s.srv.Drain(context.Background())
	rec.end(id)
	id = rec.begin(0, "store.Durable.Close", 0)
	t0 := time.Now()
	cerr := s.dur.Close()
	d := time.Since(t0)
	rec.end(id)
	if err == nil {
		err = cerr
	}
	return d, err
}

// issuedReq is a signature a client has asked for, with the entry its
// miss returned.
type issuedReq struct {
	req   request
	entry store.Entry
}

// serveClient is one closed-loop client: its generators, what it has
// issued so far (across warm-up and measurement), and what it measured.
type serveClient struct {
	id     int
	gen    *sigGen
	r      *rng
	issued []issuedReq

	ops, trials   int
	retuned       int // repeats that were searched again instead of served from the store
	missNs, hitNs []uint32
	// Traced run only: the two halves of an op.
	submitNs, awaitNs []uint32
}

func newServeClients(cfg config) []*serveClient {
	cs := make([]*serveClient, cfg.clients)
	for i := range cs {
		cs[i] = &serveClient{id: i, gen: newSigGen(cfg.seed, i), r: newRNG(cfg.seed ^ (uint64(i+1) * 0x2545f4914f6cdd1d))}
	}
	return cs
}

func (c *serveClient) resetMeasurements() {
	c.ops, c.trials, c.retuned = 0, 0, 0
	c.missNs, c.hitNs, c.submitNs, c.awaitNs = nil, nil, nil, nil
}

func clampNs(d time.Duration) uint32 { return uint32(min(d, time.Duration(^uint32(0)))) }

// loop sends the next ops requests of the client's stream one after
// another, each awaited before the next. With rec set it also times
// Submit's return separately and records spans.
func (c *serveClient) loop(srv *core.InferenceServer, freshOneIn int, ops int, rec *recorder, out *outcome, mu *sync.Mutex) {
	ctx := context.Background()
	fail := func(format string, args ...any) {
		mu.Lock()
		out.fail(format, args...)
		mu.Unlock()
	}
	for c.ops < ops {
		fresh := freshOneIn == 1 || len(c.issued) == 0 || c.r.intn(freshOneIn) == 0
		var req request
		idx := len(c.issued)
		if fresh {
			req = c.gen.fresh()
		} else {
			idx = redraw(c.r, len(c.issued))
			req = c.issued[idx].req
		}
		sampled := c.ops%sampleEvery == 0

		t0 := time.Now()
		ch := srv.Submit(ctx, core.InferRequest{Signature: req.sig, FLOPsPerSample: req.flops, Params: req.params})
		var t1 time.Time
		if rec != nil {
			t1 = time.Now()
		}
		res := <-ch
		now := time.Now()
		d := now.Sub(t0)

		c.ops++
		if res.Cached {
			c.hitNs = append(c.hitNs, clampNs(d))
		} else {
			c.missNs = append(c.missNs, clampNs(d))
			c.trials += res.Entry.TrialsRun
		}
		if rec != nil {
			c.submitNs = append(c.submitNs, clampNs(t1.Sub(t0)))
			c.awaitNs = append(c.awaitNs, clampNs(now.Sub(t1)))
			if fresh || sampled {
				op := c.id<<40 | c.ops
				root := rec.add(0, "op", op, t0, now)
				rec.add(root, "core.InferenceServer.Submit", op, t0, t1)
				rec.add(root, "await", op, t1, now)
			}
		}
		switch {
		case res.Err != nil:
			fail("client %d %s: %v", c.id, req.sig, res.Err)
		case fresh && (res.Cached || res.Entry.Signature != req.sig || res.Entry.TrialsRun == 0):
			fail("client %d %s: first request answered cached=%v with entry %q after %d trials", c.id, req.sig, res.Cached, res.Entry.Signature, res.Entry.TrialsRun)
		case fresh:
			c.issued = append(c.issued, issuedReq{req, res.Entry})
		case !res.Cached:
			// The write-behind flusher takes an entry out of its buffer
			// before the store has it; a repeat arriving in that window
			// is searched again. Wasted work, but a right answer — the
			// search is seeded by the signature — so it counts as a miss.
			c.retuned++
			if !reflect.DeepEqual(res.Entry, c.issued[idx].entry) {
				fail("client %d %s: repeat was tuned again and came out different", c.id, req.sig)
			}
		case sampled && !reflect.DeepEqual(res.Entry, c.issued[idx].entry):
			fail("client %d %s: hit returned a different entry than its miss", c.id, req.sig)
		}
	}
}

// runLoops runs every client's loop side by side and returns the wall
// time of the slowest.
func runLoops(cs []*serveClient, sys *serveSystem, freshOneIn int, ops int, rec *recorder, out *outcome) time.Duration {
	var mu sync.Mutex
	start := time.Now()
	parallel(len(cs), func(i int) { cs[i].loop(sys.srv, freshOneIn, ops, rec, out, &mu) })
	return time.Since(start)
}

// warm serves the warm-up misses; its operations count towards no metric.
func warm(cfg config, cs []*serveClient, sys *serveSystem, out *outcome) {
	runLoops(cs, sys, 1, warmupMisses(cfg)/len(cs), nil, out)
	for _, c := range cs {
		c.resetMeasurements()
	}
}

// verifyStore reopens the sealed store and checks that it holds exactly
// the signatures the clients were answered for.
func verifyStore(sys *serveSystem, cs []*serveClient, rec *recorder, out *outcome) (recoverT time.Duration, entries int, err error) {
	id := rec.begin(0, "store.OpenDurable", 0)
	t0 := time.Now()
	re, err := sys.openStore(nil)
	recoverT = time.Since(t0)
	rec.end(id)
	if err != nil {
		return 0, 0, err
	}
	defer re.Close()
	st := re.Store()
	issued := 0
	for _, c := range cs {
		issued += len(c.issued)
		for _, it := range c.issued {
			if _, err := st.Get(it.req.sig, it.entry.Device); err != nil {
				out.fail("reopened store lacks %s", it.req.sig)
				break
			}
		}
	}
	if st.Len() != issued {
		out.fail("reopened store holds %d entries, %d signatures were issued", st.Len(), issued)
	}
	return recoverT, st.Len(), nil
}

// latencies gathers the clients' samples, sorted.
func latencies(cs []*serveClient, pick func(*serveClient) []uint32) []uint32 {
	var all []uint32
	for _, c := range cs {
		all = append(all, pick(c)...)
	}
	slices.Sort(all)
	return all
}

func missLat(c *serveClient) []uint32 { return c.missNs }
func hitLat(c *serveClient) []uint32  { return c.hitNs }
func allLat(c *serveClient) []uint32  { return slices.Concat(c.missNs, c.hitNs) }

// ---- measured run ----------------------------------------------------

func measureServeMiss(cfg config) (*outcome, error)  { return measureServe(cfg, serveMiss) }
func measureServeMixed(cfg config) (*outcome, error) { return measureServe(cfg, serveMixed) }

func measureServe(cfg config, spec serveSpec) (*outcome, error) {
	out := &outcome{Metrics: metrics{}, Info: map[string]any{}, Phases: map[string]float64{}}
	goroutines := runtime.NumGoroutine()

	var sys *serveSystem
	var cs []*serveClient
	var setups []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		if sys != nil {
			if _, err := sys.close(nil); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if sys, err = openServe(cfg, spec.name, store.OSFS{}); err != nil {
			return nil, err
		}
		cs = newServeClients(cfg)
		warm(cfg, cs, sys, out)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Phases["setup"] = sum(setups)

	mem := readMem()
	wall := runLoops(cs, sys, spec.freshOneIn, spec.requests(cfg), nil, out).Seconds()
	alloc := readMem().sub(mem)
	out.Phases["measure"] = wall

	t0 := time.Now()
	if _, err := sys.close(nil); err != nil {
		return nil, err
	}
	if _, _, err := verifyStore(sys, cs, nil, out); err != nil {
		return nil, err
	}
	if leaked := leakedGoroutines(goroutines); leaked != 0 {
		out.fail("%d goroutines leaked", leaked)
	}
	out.Phases["teardown"] = time.Since(t0).Seconds()

	ops, trials, retuned := 0, 0, 0
	for _, c := range cs {
		ops += c.ops
		trials += c.trials
		retuned += c.retuned
	}
	miss := latencies(cs, missLat)
	all := latencies(cs, allLat)
	if len(miss) == 0 {
		return nil, fmt.Errorf("%s: no miss was served", spec.name)
	}
	out.Attempted = ops
	out.Info["requests"], out.Info["misses"], out.Info["hits"] = ops, len(miss), len(all)-len(miss)
	out.Info["trials_per_s"] = float64(trials) / wall
	out.Info["repeats_tuned_again"] = retuned
	out.Info["clients"] = len(cs)
	out.Info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.Info["warmup"] = fmt.Sprintf("%d misses per set-up, %d set-ups", warmupMisses(cfg), setupRepeats(cfg))
	m := out.Metrics
	m["setup_s"] = median(setups)
	out.Info["op_us_p50"] = quantile(all, 0.5) / 1e3
	out.Info["ops_per_s"] = float64(ops) / wall
	out.Info["op_us_p90"] = quantile(all, 0.9) / 1e3
	out.Info["miss_us_p50"], out.Info["miss_us_p90"] = quantile(miss, 0.5)/1e3, quantile(miss, 0.9)/1e3
	m["alloc_kb_per_op"] = float64(alloc.totalAlloc) / 1024 / float64(ops)
	return out, nil
}

// ---- traced run --------------------------------------------------------

func traceServeMiss(cfg config) (*outcome, error)  { return traceServe(cfg, serveMiss) }
func traceServeMixed(cfg config) (*outcome, error) { return traceServe(cfg, serveMixed) }

// traceServe replays the head of the request stream (a quarter of the
// measured length) twice on fresh systems: once as measured, to have a
// rate to compare with, then with the span recorder on, Submit's return
// timed apart from the wait for the outcome, and the store's filesystem
// wrapped in the counting decorator. The layer probes follow.
func traceServe(cfg config, spec serveSpec) (*outcome, error) {
	out := &outcome{Metrics: zeroLayerMetrics(), Info: map[string]any{}, Phases: map[string]float64{}}
	m := out.Metrics
	goroutines := runtime.NumGoroutine()
	head := max(1, spec.requests(cfg)/4) // per client: the first quarter of the op list

	replay := func(fs store.FS, rec *recorder) (cs []*serveClient, sys *serveSystem, wall time.Duration, err error) {
		if sys, err = openServe(cfg, spec.name, fs); err != nil {
			return
		}
		cs = newServeClients(cfg)
		warm(cfg, cs, sys, out)
		wall = runLoops(cs, sys, spec.freshOneIn, head, rec, out)
		return
	}
	rate := func(cs []*serveClient, wall time.Duration) (ops, trials float64) {
		for _, c := range cs {
			ops += float64(c.ops)
			trials += float64(c.trials)
		}
		return ops / wall.Seconds(), trials / wall.Seconds()
	}

	t0 := time.Now()
	cs, sys, wall, err := replay(store.OSFS{}, nil)
	if err != nil {
		return nil, err
	}
	if _, err := sys.close(nil); err != nil {
		return nil, err
	}
	plainRate, plainTrials := rate(cs, wall)
	plainP50 := quantile(latencies(cs, allLat), 0.5) / 1e3
	out.Phases["replay_plain"] = time.Since(t0).Seconds()

	t0 = time.Now()
	rec := newRecorder()
	cfs := newCountingFS(store.OSFS{}, rec)
	heap := startHeapSampler()
	defer heap.stop()
	gc0, cpu0 := gcCPU()
	mem0 := readMem()
	cs, sys, wall, err = replay(cfs, rec)
	if err != nil {
		return nil, err
	}
	fsLoop := cfs.stats()
	mem := readMem().sub(mem0)
	gc1, cpu1 := gcCPU()
	coalesced := sys.reg.Snapshot().Counter("serving.coalesced")
	closeT, err := sys.close(rec)
	if err != nil {
		return nil, err
	}
	fsEnd := cfs.stats() // before verifyStore reopens, and so compacts, once more
	recoverT, entries, err := verifyStore(sys, cs, rec, out)
	if err != nil {
		return nil, err
	}
	out.Phases["replay_traced"] = time.Since(t0).Seconds()

	miss, hit := latencies(cs, missLat), latencies(cs, hitLat)
	ops := len(miss) + len(hit)
	out.Attempted = ops
	if len(miss) == 0 {
		return nil, fmt.Errorf("%s: no miss was served", spec.name)
	}

	t0 = time.Now()
	in, err := defaultProbeInputs(entries)
	if err != nil {
		return nil, err
	}
	if _, err := runProbes(cfg, rec, in, m); err != nil {
		return nil, err
	}
	out.Phases["probes"] = time.Since(t0).Seconds()

	// The workload's own server and store, in place of the probes' stand-ins.
	m["core.submit_return_us_p50"] = quantile(latencies(cs, func(c *serveClient) []uint32 { return c.submitNs }), 0.5) / 1e3
	m["core.await_us_p50"] = quantile(latencies(cs, func(c *serveClient) []uint32 { return c.awaitNs }), 0.5) / 1e3
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		m["core.submit_miss_us_"+q.name] = quantile(miss, q.q) / 1e3
		m["core.submit_hit_us_"+q.name] = quantile(hit, q.q) / 1e3
	}
	m["core.submit_miss_us_tail"] = quantile(miss, tailPercentile(len(miss))) / 1e3
	m["core.submit_hit_us_tail"] = quantile(hit, tailPercentile(len(hit))) / 1e3
	m["core.cached_share"] = float64(len(hit)) / float64(ops)
	m["core.cache_hit_ratio"] = m["core.cached_share"]
	m["core.coalesced_share"] = float64(coalesced) / float64(ops)
	retuned, fresh := 0, 0
	for _, c := range cs {
		retuned += c.retuned
		fresh += len(c.issued)
	}
	if repeats := ops - (fresh - warmupMisses(cfg)); repeats > 0 {
		m["core.retuned_share"] = float64(retuned) / float64(repeats)
	}
	puts := float64(len(miss) + warmupMisses(cfg))
	m["store.fs_syncs_per_put"] = float64(fsLoop.Syncs) / puts
	m["store.fs_bytes_per_put"] = float64(fsLoop.WriteBytes) / puts
	m["store.fs_sync_ms_p50"] = fsLoop.syncP50Ms()
	m["store.fs_sync_busy_share"] = float64(fsLoop.SyncNs) / float64(wall)
	m["store.fs_write_busy_share"] = float64(fsLoop.WriteNs) / float64(wall)
	m["store.compactions"] = float64(fsEnd.SnapshotWrites)
	m["store.snapshot_bytes_written"] = float64(fsEnd.SnapshotBytes)
	m["store.close_ms"] = ms(closeT)
	m["store.open_recover_ms"] = ms(recoverT)
	m["store.entries_recovered"] = float64(entries)

	if cpu1 > cpu0 {
		m["runtime.gc_cpu_share"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m["runtime.gc_cycles_per_op"] = float64(mem.numGC) / float64(ops)
	m["runtime.heap_peak_mb"] = heap.stop()
	m["runtime.goroutines_leaked"] = float64(leakedGoroutines(goroutines))
	if m["runtime.goroutines_leaked"] != 0 {
		out.fail("%v goroutines leaked", m["runtime.goroutines_leaked"])
	}
	tracedRate, _ := rate(cs, wall)
	m["bench.trace_overhead_ratio"] = plainRate / tracedRate
	m["bench.op_us_p50"], m["bench.ops_per_s"], m["bench.trials_per_s"] = plainP50, plainRate, plainTrials
	// What the outside-in view can account for of the clients' time: a
	// miss is 24 sample/observe/estimate rounds, a hit one store read.
	perMiss := 24 * (m["search.tpe_sample_us"]*1e3 + m["search.tpe_observe_us"]*1e3 + m["device.estimate_ns"])
	attributed := float64(len(miss))*perMiss + float64(len(hit))*m["store.get_ns"]
	m["bench.unattributed_share"] = 1 - attributed/(float64(wall)*float64(len(cs)))

	out.Info["requests"], out.Info["misses"], out.Info["hits"] = ops, len(miss), len(hit)
	out.Info["tail_percentile_miss"] = tailPercentile(len(miss))
	out.Info["tail_percentile_hit"] = tailPercentile(len(hit))
	spans := rec.snapshot()
	out.Trace = selfByName(spans)
	return out, writeJSONL(filepath.Join(cfg.outDir, "trace_"+spec.name+".jsonl"), spans)
}
