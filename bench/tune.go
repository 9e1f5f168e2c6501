package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgetune"
	"edgetune/internal/cluster"
	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// tuneSpec is what differs between the two tuning workloads.
type tuneSpec struct {
	name     string
	call     string   // the public call an op makes, for span names
	workload string   // edgetune.Job.Workload
	pool     []uint64 // Job.Seed values, see gen.go
	clients  func(config) int
	// perSecond is the jobs one client's op list holds per nominal second
	// of run: at the declared 20 s, 10 IC jobs and 6 NLP jobs per tenant,
	// which is each pool walked once.
	perSecond float64
	// historyFree says a job's report depends on its Job.Seed alone (see
	// goldenID).
	historyFree bool
	// open builds the system the jobs run on. variant "" is the workload
	// as measured; the traced run also opens "core" (core.Tune called
	// directly with the same options) and obsVariant.
	open func(cfg config, variant string) (tuneTarget, error)
	// obsVariant flips the observability options: "obs-on" where the
	// workload leaves them off, "obs-off" where it turns them on.
	obsVariant string
}

// tuneTarget runs jobs for one workload and tears the system down.
type tuneTarget interface {
	tune(ctx context.Context, client int, j jobSpec) (*edgetune.Report, error)
	// close tears the system down; a cluster also says how it was used.
	close() (*clusterUse, error)
}

// clusterUse is what a cluster's own counters say after a run.
type clusterUse struct {
	failovers    float64
	shardBalance float64 // fewest ÷ most jobs over the shards
}

// jobSpec is one generated job.
type jobSpec struct {
	seed uint64
	pass int  // how many times this client has walked its pool before
	warm bool // the set-up's warm-up job: warmJob, whatever seed says
}

// job builds the edgetune.Job for a spec: every field default but the
// ones named. The tiny scale shrinks the search so smoke tests finish.
func job(cfg config, wl string, seed uint64) edgetune.Job {
	j := edgetune.Job{Workload: wl, Seed: seed}
	if cfg.tiny {
		j.Configs, j.Rungs, j.Brackets, j.InferenceTrials = 4, 3, 1, 6
	}
	return j
}

// warmJob is the job each set-up runs before measuring: small, so that
// set-up can be repeated and its median reported, but through every
// layer a measured job uses.
func warmJob(wl string) edgetune.Job {
	return edgetune.Job{Workload: wl, Seed: 0xbe7c4, Configs: 4, Rungs: 3, Brackets: 1, InferenceTrials: 6}
}

// warmUp runs one warmJob per client through t, side by side as the
// measured jobs will run. The tiny scale skips it: a smoke test has
// nothing to warm up for.
func warmUp(cfg config, clients int, t tuneTarget) error {
	if cfg.tiny {
		return nil
	}
	errs := make([]error, clients)
	parallel(clients, func(c int) { _, errs[c] = t.tune(context.Background(), c, jobSpec{warm: true}) })
	return errors.Join(errs...)
}

var tuneIC = tuneSpec{
	name: "tune_ic", call: "edgetune.Tune", workload: "IC", pool: icPool, historyFree: true,
	clients: func(config) int { return 1 }, perSecond: 0.5,
	open: openPlain, obsVariant: "obs-on",
}

var tuneCluster = tuneSpec{
	name: "tune_cluster", call: "edgetune.Cluster.Tune", workload: "NLP", pool: nlpPool,
	clients: func(c config) int { return c.clients }, perSecond: 0.3,
	open: openCluster, obsVariant: "obs-off",
}

// jobs is each client's fixed op list for this run.
func (spec tuneSpec) jobs(cfg config) [][]jobSpec {
	return jobLists(cfg.seed, spec.pool, spec.clients(cfg), cfg.ops(spec.perSecond, 2))
}

// plainTarget runs jobs through edgetune.Tune (or, for the traced
// run's alternatives, core.Tune directly or edgetune.Tune with the
// observability options on).
type plainTarget struct {
	cfg      config
	workload string
	variant  string
	dir      string

	mu      sync.Mutex
	results map[uint64]core.Result // variant "core": by Job.Seed, for the trial replay
}

func openPlain(cfg config, variant string) (tuneTarget, error) {
	return openPlainFor(cfg, "IC", 1, variant)
}

func openPlainFor(cfg config, wl string, clients int, variant string) (tuneTarget, error) {
	dir, err := cfg.freshDir("tune-" + wl)
	if err != nil {
		return nil, err
	}
	t := &plainTarget{cfg: cfg, workload: wl, variant: variant, dir: dir, results: map[uint64]core.Result{}}
	return t, warmUp(cfg, clients, t)
}

func (t *plainTarget) tune(ctx context.Context, client int, js jobSpec) (*edgetune.Report, error) {
	j := job(t.cfg, t.workload, js.seed)
	if js.warm {
		j = warmJob(t.workload)
	}
	switch t.variant {
	case "core":
		return t.tuneCore(ctx, j)
	case "obs-on":
		j.Flight = true
		j.TracePath = filepath.Join(t.dir, fmt.Sprintf("obs-%d-%d.jsonl", client, js.seed))
	}
	return edgetune.Tune(ctx, j)
}

// tuneCore calls core.Tune with the options edgetune.Tune builds for
// the same job, so the difference between the two is the root
// package's own work.
func (t *plainTarget) tuneCore(ctx context.Context, j edgetune.Job) (*edgetune.Report, error) {
	opts, err := coreOptions(j)
	if err != nil {
		return nil, err
	}
	res, err := core.Tune(ctx, opts)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.results[j.Seed] = res
	t.mu.Unlock()
	return &edgetune.Report{
		BestConfig: res.BestConfig, BestAccuracy: res.BestAccuracy, TrialsRun: res.TrialsRun,
		TuningMinutes: res.TuningDuration.Minutes(), TuningEnergyKJ: res.TuningEnergyKJ,
		CacheHits: res.CacheHits, CacheMisses: res.CacheMisses,
	}, nil
}

// coreOptions mirrors edgetune.Job.coreOptions plus the registry and
// SLO evaluator edgetune.Tune always attaches.
func coreOptions(j edgetune.Job) (core.Options, error) {
	w, err := workload.New(j.Workload, j.Seed^0x9e3779b9)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workload: w, Device: device.I7(), SystemParams: true, InferenceAware: true,
		InitialConfigs: j.Configs, Rungs: j.Rungs, MaxBrackets: j.Brackets, InferTrials: j.InferenceTrials,
		Seed: j.Seed, Checkpoint: j.Checkpoint, Tenant: j.Tenant,
		Metrics: obs.NewRegistry(), SLO: slo.NewEvaluator(),
	}, nil
}

func (t *plainTarget) close() (*clusterUse, error) { return nil, nil }

// clusterTarget runs jobs on a two-shard cluster, one tenant per client,
// each tenant owned by a different shard.
type clusterTarget struct {
	cfg     config
	cl      *edgetune.Cluster
	clients int
	tenant  []string // [client]
	shard   []string // [client] the shard its tenant hashes to
}

func openCluster(cfg config, variant string) (tuneTarget, error) {
	if variant == "core" {
		return openPlainFor(cfg, "NLP", cfg.clients, variant)
	}
	dir, err := cfg.freshDir("tune-cluster")
	if err != nil {
		return nil, err
	}
	opts := edgetune.ClusterOptions{Shards: 2, Dir: dir, Flight: true, TracePath: filepath.Join(dir, "cluster-trace.jsonl")}
	if variant == "obs-off" {
		opts.Flight, opts.TracePath = false, ""
	}
	cl, err := edgetune.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	t := &clusterTarget{cfg: cfg, cl: cl, clients: cfg.clients}
	// A job's shard is the ring owner of "tenant/workload". Pick tenant
	// names so that client c's jobs land on shard c.
	ring := cluster.NewRing(0)
	shards := cl.Shards()
	for _, s := range shards {
		ring.Add(s)
	}
	for c := 0; c < t.clients; c++ {
		want := shards[c%len(shards)]
		name := fmt.Sprintf("tenant%d", c)
		for n := 0; ring.Owner(name+"/NLP") != want; n++ {
			name = fmt.Sprintf("tenant%d-%d", c, n)
		}
		t.tenant, t.shard = append(t.tenant, name), append(t.shard, want)
	}
	if err := warmUp(cfg, t.clients, t); err != nil {
		cl.Close()
		return nil, err
	}
	return t, nil
}

func (t *clusterTarget) tune(ctx context.Context, client int, js jobSpec) (*edgetune.Report, error) {
	j := job(t.cfg, "NLP", js.seed)
	if js.warm {
		j = warmJob("NLP")
	}
	// A shard keys a job's checkpoint by its shape and seed, whoever the
	// tenant: a seed met again on the same shard would resume from the
	// finished job's checkpoint in 15 ms and measure nothing. A client
	// that has walked its whole pool therefore moves on to fresh seeds.
	j.Seed += uint64(js.pass) << 32
	j.Checkpoint, j.Tenant = true, t.tenant[client]
	rep, err := t.cl.Tune(ctx, j)
	if err != nil {
		return nil, err
	}
	if rep.Shard != t.shard[client] {
		return nil, fmt.Errorf("tenant %s ran on %s, want %s", j.Tenant, rep.Shard, t.shard[client])
	}
	if rep.FailedOver {
		return nil, fmt.Errorf("job of tenant %s failed over", j.Tenant)
	}
	return rep.Report, nil
}

// close seals the cluster and reports how evenly its shards were used.
func (t *clusterTarget) close() (*clusterUse, error) {
	m := t.cl.Metrics()
	err := t.cl.Close()
	use := &clusterUse{}
	var perShard []float64
	for _, c := range m.Counters {
		switch {
		case c.Name == "cluster.failovers":
			use.failovers = float64(c.Value)
		case strings.HasPrefix(c.Name, "cluster.shard") && strings.HasSuffix(c.Name, ".jobs"):
			perShard = append(perShard, float64(c.Value))
		}
	}
	if len(perShard) == len(t.cl.Shards()) {
		use.shardBalance = slices.Min(perShard) / slices.Max(perShard)
	}
	return use, err
}

// parallel runs fn(0..n-1) on n goroutines and waits for all of them.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); fn(i) }()
	}
	wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---- output checking ------------------------------------------------

// digest is the sha256 over the fields of a report that the same job
// with the same history must reproduce.
func digest(rep *edgetune.Report) string {
	keys := make([]string, 0, len(rep.BestConfig))
	for k := range rep.BestConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v;", k, rep.BestConfig[k])
	}
	fmt.Fprintf(h, "acc=%v;trials=%d;min=%v;kj=%v;rec=%+v",
		rep.BestAccuracy, rep.TrialsRun, rep.TuningMinutes, rep.TuningEnergyKJ, rep.Recommendation)
	return hex.EncodeToString(h.Sum(nil))
}

// golden maps "<workload>" or "<workload>.tiny" to a job's id to the
// digest its report must have.
type golden map[string]map[string]string

func loadGolden(spec tuneSpec, cfg config) (map[string]string, error) {
	b, err := os.ReadFile("golden.json")
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g[goldenKey(spec, cfg)], nil
}

func goldenKey(spec tuneSpec, cfg config) string {
	if cfg.tiny {
		return spec.name + ".tiny"
	}
	return spec.name
}

// goldenID names the golden digest for a client's index-th job, or ""
// when golden.json cannot have one. A job on its own (tune_ic) has one
// outcome per Job.Seed. On the cluster a job reads the inference results
// earlier jobs left in its shard's store, so its outcome depends on the
// jobs before it; golden.json records the sequences -seed 1 produces,
// and other seeds rely on the re-run check in measureTune.
func (spec tuneSpec) goldenID(cfg config, client, index int, jobSeed uint64) string {
	switch {
	case spec.historyFree:
		return strconv.FormatUint(jobSeed, 10)
	case cfg.seed == 1:
		return fmt.Sprintf("client%d.job%d", client, index)
	}
	return ""
}

// checkDigest compares a report with golden.json where it has an entry.
func (spec tuneSpec) checkDigest(cfg config, want map[string]string, client, index int, jobSeed uint64, got string) error {
	if w, ok := want[spec.goldenID(cfg, client, index, jobSeed)]; ok && w != got {
		return fmt.Errorf("client %d job %d (Job.Seed %d): report digest %s, golden.json has %s", client, index, jobSeed, got[:12], w[:12])
	}
	return nil
}

// writeGolden regenerates golden.json from this build, at both scales.
func writeGolden(cfg config) error {
	g := golden{}
	cfg.seed = 1
	for _, spec := range []tuneSpec{tuneIC, tuneCluster} {
		for _, tiny := range []bool{false, true} {
			c := cfg
			c.tiny = tiny
			key := goldenKey(spec, c)
			g[key] = map[string]string{}
			target, err := spec.open(c, "")
			if err != nil {
				return err
			}
			// A history-free job has one digest per Job.Seed: record the
			// whole pool. Otherwise record the sequence -seed 1 runs.
			lists := spec.jobs(c)
			if spec.historyFree {
				lists = jobLists(c.seed, spec.pool, 1, len(spec.pool))
			}
			errs := make([]error, len(lists))
			var mu sync.Mutex
			parallel(len(lists), func(cl int) {
				for i, js := range lists[cl] {
					rep, err := target.tune(context.Background(), cl, js)
					if err != nil {
						errs[cl] = err
						return
					}
					mu.Lock()
					g[key][spec.goldenID(c, cl, i, js.seed)] = digest(rep)
					mu.Unlock()
				}
			})
			if _, err := target.close(); err != nil {
				return err
			}
			if err := errors.Join(errs...); err != nil {
				return err
			}
			fmt.Printf("%s: %d digests\n", key, len(g[key]))
		}
	}
	return writeJSON("golden.json", g)
}

// ---- measured run ----------------------------------------------------

func measureTuneIC(cfg config) (*outcome, error)      { return measureTune(cfg, tuneIC) }
func measureTuneCluster(cfg config) (*outcome, error) { return measureTune(cfg, tuneCluster) }

// setupRepeats is how many times a workload sets up; setup_s is the
// median — five, so that a stalled fsync or two cannot move it — and
// the last set-up is the one the measured loop runs on.
func setupRepeats(cfg config) int {
	if cfg.tiny {
		return 1
	}
	return 5
}

// jobResult is one finished job.
type jobResult struct {
	spec    jobSpec
	seconds float64
	trials  int
	digest  string
}

func measureTune(cfg config, spec tuneSpec) (*outcome, error) {
	out := &outcome{Metrics: metrics{}, Info: map[string]any{}, Phases: map[string]float64{}}
	want, err := loadGolden(spec, cfg)
	if err != nil {
		return nil, err
	}
	clients := spec.clients(cfg)
	goroutines := runtime.NumGoroutine()

	var target tuneTarget
	var setups []float64
	for i := 0; i < setupRepeats(cfg); i++ {
		if target != nil {
			if _, err := target.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		target, err = spec.open(cfg, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.Phases["setup"] = sum(setups)

	lists := spec.jobs(cfg)
	results := make([][]jobResult, clients)
	var mu sync.Mutex // guards out
	mem := readMem()
	start := time.Now()
	parallel(clients, func(c int) {
		for n, js := range lists[c] {
			t0 := time.Now()
			rep, err := target.tune(context.Background(), c, js)
			d := time.Since(t0)
			if err == nil {
				dg := digest(rep)
				results[c] = append(results[c], jobResult{js, d.Seconds(), rep.TrialsRun, dg})
				err = spec.checkDigest(cfg, want, c, n, js.seed, dg)
			}
			mu.Lock()
			out.Attempted++
			if err != nil {
				out.fail("%v", err)
			}
			mu.Unlock()
		}
	})
	wall := time.Since(start).Seconds()
	alloc := readMem().sub(mem)
	out.Phases["measure"] = wall

	t0 := time.Now()
	use, err := target.close()
	if err != nil {
		return nil, err
	}
	if use != nil && (use.shardBalance == 0 || use.failovers != 0) {
		out.fail("cluster: shard balance %v (a shard got no jobs at 0), %v failovers", use.shardBalance, use.failovers)
	}
	// Where golden.json cannot vouch for a report, the first job must at
	// least come out the same when run again from the same start.
	if !spec.historyFree && len(results[0]) > 0 {
		again, err := spec.open(cfg, "")
		if err != nil {
			return nil, err
		}
		first := results[0][0]
		rep, err := again.tune(context.Background(), 0, first.spec)
		if err != nil {
			out.fail("re-run of client 0 job 0: %v", err)
		} else if digest(rep) != first.digest {
			out.fail("re-run of client 0 job 0 (Job.Seed %d) gave digest %s, first run %s", first.spec.seed, digest(rep)[:12], first.digest[:12])
		}
		if _, err := again.close(); err != nil {
			return nil, err
		}
	}
	if leaked := leakedGoroutines(goroutines); leaked != 0 {
		out.fail("%d goroutines leaked", leaked)
	}
	out.Phases["teardown"] = time.Since(t0).Seconds()

	var secs []float64
	trials := 0
	for _, rs := range results {
		for _, r := range rs {
			secs = append(secs, r.seconds*1e6)
			trials += r.trials
		}
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("%s: no job finished", spec.name)
	}
	slices.Sort(secs)
	out.Info["jobs"] = len(secs)
	out.Info["job_s_min"], out.Info["job_s_max"] = secs[0]/1e6, secs[len(secs)-1]/1e6
	out.Info["trials_per_s"] = float64(trials) / wall
	out.Info["clients"] = clients
	out.Info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.Info["warmup"] = fmt.Sprintf("1 small job per client per set-up, %d set-ups", setupRepeats(cfg))
	m := out.Metrics
	m["setup_s"] = median(setups)
	out.Info["op_us_p50"] = quantile(secs, 0.5)
	out.Info["ops_per_s"] = float64(len(secs)) / wall
	m["alloc_kb_per_op"] = float64(alloc.totalAlloc) / 1024 / float64(len(secs))
	return out, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ---- traced run --------------------------------------------------------

func traceTuneIC(cfg config) (*outcome, error)      { return traceTune(cfg, tuneIC) }
func traceTuneCluster(cfg config) (*outcome, error) { return traceTune(cfg, tuneCluster) }

// traceTune replays the head of the op list (the first three jobs of
// each client) four ways — as measured, as measured under the span
// recorder, through core.Tune directly, and with the observability
// options flipped — rotating the order from job to job so that slow
// drift of the machine falls on all four alike. It then replays the
// first job's recorded trials through trial.Runner and runs the layer
// probes at that job's winning configuration.
func traceTune(cfg config, spec tuneSpec) (*outcome, error) {
	out := &outcome{Metrics: zeroLayerMetrics(), Info: map[string]any{}, Phases: map[string]float64{}}
	m := out.Metrics
	want, err := loadGolden(spec, cfg)
	if err != nil {
		return nil, err
	}
	clients := spec.clients(cfg)
	goroutines := runtime.NumGoroutine()
	rec := newRecorder()
	heap := startHeapSampler()
	defer heap.stop()
	gc0, cpu0 := gcCPU()
	mem0 := readMem()

	head := spec.jobs(cfg)
	headLen := min(3, len(head[0]))
	if cfg.tiny {
		headLen = 1
	}

	variants := []string{"plain", "traced", "core", spec.obsVariant}
	targets := map[string]tuneTarget{}
	defer func() {
		for _, t := range targets { // only what an early return left open
			t.close()
		}
	}()
	t0 := time.Now()
	for _, v := range variants {
		arg := v
		if v == "plain" || v == "traced" {
			arg = ""
		}
		if targets[v], err = spec.open(cfg, arg); err != nil {
			return nil, err
		}
	}
	out.Phases["setup"] = time.Since(t0).Seconds()

	secs := map[string][]float64{}
	digests := map[string]map[int]string{} // variant -> op -> digest
	mallocs := map[string]uint64{}
	var reports []*edgetune.Report // of the plain variant
	var firstCoreS float64         // client 0's first job through core.Tune
	var mu sync.Mutex
	t0 = time.Now()
	for j := 0; j < headLen; j++ {
		for k := range variants {
			v := variants[(j+k)%len(variants)]
			mem := readMem()
			parallel(clients, func(c int) {
				var r *recorder
				if v == "traced" {
					r = rec
				}
				op := c*headLen + j + 1
				opSpan := r.begin(0, "op", op)
				callSpan := r.begin(opSpan, spec.call, op)
				t0 := time.Now()
				rep, err := targets[v].tune(context.Background(), c, head[c][j])
				d := time.Since(t0)
				r.end(callSpan)
				r.end(opSpan)
				// Every variant but core.Tune (which has no shard store
				// behind it) sees the same history, so must report the same.
				var dg string
				if err == nil && v != "core" {
					dg = digest(rep)
					err = spec.checkDigest(cfg, want, c, j, head[c][j].seed, dg)
				}
				mu.Lock()
				defer mu.Unlock()
				out.Attempted++
				if err != nil {
					out.fail("%s: %v", v, err)
					return
				}
				secs[v] = append(secs[v], d.Seconds())
				if digests[v] == nil {
					digests[v] = map[int]string{}
				}
				digests[v][op] = dg
				switch {
				case v == "plain":
					reports = append(reports, rep)
				case v == "core" && c == 0 && j == 0:
					firstCoreS = d.Seconds()
				}
			})
			mallocs[v] += readMem().sub(mem).mallocs
		}
	}
	out.Phases["replay"] = time.Since(t0).Seconds()
	jobs := clients * headLen
	for _, v := range variants {
		if len(secs[v]) != jobs {
			return out, nil // failures are already counted; nothing sound to report
		}
		for op, d := range digests[v] {
			if d != digests["plain"][op] && v != "core" {
				out.fail("op %d: variant %s reported digest %s, plain %s", op, v, d[:12], digests["plain"][op][:12])
			}
		}
	}

	// Teardown, keeping what the workload's own system says about itself.
	t0 = time.Now()
	coreResults := targets["core"].(*plainTarget).results
	for _, v := range variants {
		use, err := targets[v].close()
		delete(targets, v)
		if err != nil {
			return nil, err
		}
		if v == "plain" && use != nil {
			m["cluster.shard_balance"], m["cluster.failovers"] = use.shardBalance, use.failovers
			if use.shardBalance != 1 || use.failovers != 0 {
				out.fail("cluster: shard balance %v (want 1), failovers %v (want 0)", use.shardBalance, use.failovers)
			}
		}
	}
	out.Phases["teardown"] = time.Since(t0).Seconds()

	plain, core_ := median(secs["plain"]), median(secs["core"])
	m["edgetune.tune_overhead_ms"] = (plain - core_) * 1e3
	m["edgetune.allocs_per_job"] = float64(mallocs["plain"]) / float64(jobs)
	m["core.tune_s"] = core_
	m["bench.trace_overhead_ratio"] = median(secs["traced"]) / plain
	m["bench.op_us_p50"] = plain * 1e6
	m["bench.ops_per_s"] = float64(clients) / plain
	if spec.obsVariant == "obs-on" {
		m["obs.on_overhead_ratio"] = median(secs["obs-on"]) / plain
	} else {
		m["obs.on_overhead_ratio"] = plain / median(secs["obs-off"])
	}
	hits, misses := 0, 0
	for _, r := range reports {
		m["core.trials_per_job"] += float64(r.TrialsRun) / float64(jobs)
		m["core.sim_minutes_per_job"] += r.TuningMinutes / float64(jobs)
		hits, misses = hits+r.CacheHits, misses+r.CacheMisses
	}
	m["bench.trials_per_s"] = m["core.trials_per_job"] * m["bench.ops_per_s"]
	m["core.serving_requests_per_job"] = float64(hits+misses) / float64(jobs)
	m["core.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))

	// Layer probes at the first job: its recorded trials, its winner.
	first := head[0][0]
	res, ok := coreResults[job(cfg, spec.workload, first.seed).Seed]
	if !ok {
		return nil, fmt.Errorf("%s: core.Tune result of seed %d missing", spec.name, first.seed)
	}
	opts, err := coreOptions(job(cfg, spec.workload, first.seed))
	if err != nil {
		return nil, err
	}
	in := probeInputs{w: opts.Workload, cfg: res.BestConfig, seed: first.seed, storeEntries: res.CacheMisses}
	for _, tr := range res.Trials {
		in.trials = append(in.trials, trial.Request{Config: tr.Config, Alloc: tr.Alloc})
	}
	t0 = time.Now()
	trialS, err := runProbes(cfg, rec, in, m)
	if err != nil {
		return nil, err
	}
	out.Phases["probes"] = time.Since(t0).Seconds()
	// What the outside-in view can account for: the job's trials re-run
	// one by one, plus one model-search sample and observation per trial.
	searchS := float64(len(res.Trials)) * (m["search.tpe_sample_us"] + m["search.tpe_observe_us"]) / 1e6
	m["bench.unattributed_share"] = 1 - (trialS+searchS)/firstCoreS

	gc1, cpu1 := gcCPU()
	if cpu1 > cpu0 {
		m["runtime.gc_cpu_share"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m["runtime.gc_cycles_per_op"] = float64(readMem().sub(mem0).numGC) / float64(out.Attempted)
	m["runtime.heap_peak_mb"] = heap.stop()
	m["runtime.goroutines_leaked"] = float64(leakedGoroutines(goroutines))
	if m["runtime.goroutines_leaked"] != 0 {
		out.fail("%v goroutines leaked", m["runtime.goroutines_leaked"])
	}
	out.Info["jobs_per_variant"] = jobs
	out.Info["variants"] = strings.Join(variants, ",")
	out.Info["probe_trials"] = len(in.trials)
	spans := rec.snapshot()
	out.Trace = selfByName(spans)
	return out, writeJSONL(filepath.Join(cfg.outDir, "trace_"+spec.name+".jsonl"), spans)
}
