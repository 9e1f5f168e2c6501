package chaosfuzz

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/cluster"
	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// fuzzTenant is the identity every fuzz job runs under; the cluster's
// quota counters and rejection metrics key on it.
const fuzzTenant = "fuzz"

// Runner executes one schedule as a real tuning job — the same wiring
// the public Tune path and the cluster dispatcher use, built directly
// so the fuzzer controls every knob. The job shape is fixed per
// (mode, seed): a small IC search, autoscaling on, checkpointing on,
// durable store (single mode) or a two-shard cluster (cluster mode).
type Runner struct {
	// Mode is ModeSingle or ModeCluster.
	Mode string
	// Seed drives the job and every fault decision in it.
	Seed uint64
	// PlantDoubleChargeRetry plants a deliberate accounting bug for the
	// fuzzer's own acceptance tests: after the run, the total retry
	// cost is charged to the tuning budget a second time, violating
	// budget conservation on any schedule that causes a retry.
	PlantDoubleChargeRetry bool
}

// replicaScrub is one store replica's post-run integrity evidence.
// Name is scratch-path-free ("primary", "shard0/follower") so every
// downstream artefact stays byte-identical across runs.
type replicaScrub struct {
	Name      string            `json:"name"`
	Report    store.ScrubReport `json:"report"`
	ReopenErr string            `json:"reopenErr,omitempty"`
}

// runOutcome is the complete evidence one schedule execution leaves
// behind for the invariant registry.
type runOutcome struct {
	Schedule   Schedule
	Result     core.Result
	RunErr     error
	FailedOver bool
	// QuotaDenied reports the cluster rejected the submission at the
	// tenant gate; Rejected is the fabric's rejection counter for the
	// fuzz tenant (the two must agree).
	QuotaDenied bool
	Rejected    int64
	// ClusterSLO is the fabric evaluator's snapshot (cluster mode).
	ClusterSLO slo.Snapshot
	// Incidents are the shard dossiers (cluster mode), keyed by shard.
	Incidents map[string][]flight.Dossier
	// Scrubs holds every replica's post-run scrub + reopen evidence.
	Scrubs []replicaScrub
	// Leaked is how many goroutines outlived the run after a settle
	// period (0 on a clean shutdown).
	Leaked int
	// Digest fingerprints the full outcome (result, scrubs, errors) —
	// two runs of the same schedule must agree byte for byte.
	// OutcomeDigest covers only the answer (winning config, accuracy,
	// recommendation) — the convergence the failover design promises.
	Digest        string
	OutcomeDigest string
	// scratch is the run's temp directory; every error string is
	// scrubbed of it before digesting, or two identical runs would
	// "diverge" on their scratch paths alone.
	scratch string
}

// errString renders RunErr with the scratch directory redacted.
func (o *runOutcome) errString() string {
	if o.RunErr == nil {
		return ""
	}
	return redactPath(o.RunErr.Error(), o.scratch)
}

// redactPath replaces every occurrence of dir in s with a stable
// placeholder.
func redactPath(s, dir string) string {
	if dir == "" {
		return s
	}
	return strings.ReplaceAll(s, dir, "<scratch>")
}

// Run executes the schedule once and gathers the evidence. The error
// return is for harness failures (bad schedule, scratch-dir I/O);
// failures *of the system under test* land inside the outcome where
// the invariants judge them.
func (r *Runner) Run(s Schedule) (*runOutcome, error) {
	return r.run(s, nil)
}

func (r *Runner) run(s Schedule, observe fault.Observer) (*runOutcome, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	jobPlan, clusterPlan, err := s.plans()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "chaosfuzz-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	before := runtime.NumGoroutine()
	var out *runOutcome
	if s.Mode == ModeCluster {
		out, err = r.runCluster(s, dir, jobPlan, clusterPlan, observe)
	} else {
		out, err = r.runSingle(s, dir, jobPlan, observe)
	}
	if err != nil {
		return nil, err
	}
	out.Schedule = s
	out.scratch = dir
	out.Leaked = settleGoroutines(before)
	if r.PlantDoubleChargeRetry && out.RunErr == nil {
		for _, t := range out.Result.Trials {
			out.Result.TuningDuration += t.RetryCost.Duration
		}
	}
	out.finalize()
	return out, nil
}

// jobOptions builds the fixed fuzz job shape: small enough that a
// schedule evaluation takes tens of milliseconds, rich enough that
// every subsystem (retries, inference serving, autoscaling ladder,
// checkpoints, SLOs) has decision points to fault.
func (r *Runner) jobOptions(s Schedule, plan *fault.Plan, observe fault.Observer) (core.Options, error) {
	w, err := workload.New("IC", s.Seed^0x9e3779b9)
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workload:       w,
		Device:         device.I7(),
		Autoscale:      &autoscale.Config{Min: 1, Max: 2},
		SystemParams:   true,
		InferenceAware: true,
		InitialConfigs: 4,
		Rungs:          3,
		MaxBrackets:    1,
		InferTrials:    6,
		Seed:           s.Seed,
		// The plan, even an empty one, is also what makes the inference
		// server persist results inline (core.NewInferenceServer): a
		// background flusher's appends would interleave with the tuner's
		// own and shift the fault FS's operation numbering run to run.
		Fault:      fault.Config{Plan: plan, Observe: observe},
		Checkpoint: true,
		Tenant:     fuzzTenant,
	}, nil
}

func (r *Runner) runSingle(s Schedule, dir string, plan *fault.Plan, observe fault.Observer) (*runOutcome, error) {
	storePath := filepath.Join(dir, "store.json")
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	tracer := obs.NewTracer()
	fr := flight.New(1 << 12)
	tracer.SetSpanObserver(func(name string, track int, start, dur time.Duration) {
		fr.Record(start, flight.KindSpan, name, "", int64(track), int64(dur))
	})

	// The disk classes fire through a fault-wrapped filesystem under the
	// durable store. Its injector shares the job's seed and plan — fault
	// sites are disjoint by class, so one schedule drives both layers.
	fcfg := fault.Config{Plan: plan, Observe: observe}
	finj, err := fault.NewInjector(fcfg, s.Seed, counters.NewResilienceOn(reg))
	if err != nil {
		return nil, err
	}
	out := &runOutcome{}
	dur, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: storePath,
		FS:           fault.NewFS(store.OSFS{}, finj),
		Metrics:      reg,
		SLO:          ev,
		Trace:        tracer,
		Flight:       fr,
	})
	if err != nil {
		// A schedule can kill the disk during the very first open; that
		// is a system outcome, not a harness failure.
		out.RunErr = fmt.Errorf("open durable store: %w", err)
		out.Scrubs = scrubReplicas(dir, []string{"primary"})
		return out, nil
	}

	opts, err := r.jobOptions(s, plan, observe)
	if err != nil {
		return nil, err
	}
	opts.Store = dur.Store()
	opts.Trace = tracer
	opts.Metrics = reg
	opts.SLO = ev
	opts.Flight = fr

	out.Result, out.RunErr = core.Tune(context.Background(), opts)
	if cerr := dur.Close(); cerr != nil && out.RunErr == nil {
		out.RunErr = fmt.Errorf("close durable store: %w", cerr)
	}
	out.Scrubs = scrubReplicas(dir, []string{"primary"})
	return out, nil
}

func (r *Runner) runCluster(s Schedule, dir string, jobPlan, clusterPlan *fault.Plan, observe fault.Observer) (*runOutcome, error) {
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	cl, err := cluster.New(cluster.Options{
		Shards:      2,
		Dir:         dir,
		Seed:        s.Seed,
		Fault:       fault.Config{Plan: clusterPlan, Observe: observe},
		TenantRate:  1,
		TenantBurst: 4,
		Metrics:     reg,
		SLO:         ev,
		Flight:      true,
		FlightSlots: 1 << 12,
	})
	if err != nil {
		return nil, err
	}
	opts, err := r.jobOptions(s, jobPlan, observe)
	if err != nil {
		cl.Close()
		return nil, err
	}
	opts.Metrics = obs.NewRegistry() // per-job registry, like the dispatcher's callers

	out := &runOutcome{}
	res, runErr := cl.Submit(context.Background(), cluster.Job{
		Key:    "fuzz/job",
		Tenant: fuzzTenant,
		Opts:   opts,
	})
	out.Result = res.Result
	out.RunErr = runErr
	out.FailedOver = res.FailedOver
	out.QuotaDenied = errors.Is(runErr, cluster.ErrTenantQuota)
	out.Incidents = cl.Incidents()
	if cerr := cl.Close(); cerr != nil && out.RunErr == nil {
		out.RunErr = fmt.Errorf("close cluster: %w", cerr)
	}
	out.Rejected = reg.Snapshot().Counter("cluster.tenant.rejected." + fuzzTenant)
	out.ClusterSLO = ev.Snapshot()
	out.Scrubs = scrubReplicas(dir, []string{
		"shard0/primary", "shard0/follower",
		"shard1/primary", "shard1/follower",
	})
	return out, nil
}

// scrubReplicas verifies each replica's on-disk store: a read-only
// scrub first (point-in-time corruption evidence), then a real
// recovery (reopen + close) proving the salvage path terminates and
// accepts whatever the run left behind. Paths inside the reports are
// rewritten to the replica name so no scratch directory ever leaks
// into digests or artefacts.
func scrubReplicas(dir string, names []string) []replicaScrub {
	var out []replicaScrub
	for _, name := range names {
		base := dir
		if name != "primary" {
			base = filepath.Join(dir, filepath.FromSlash(name))
		}
		snap := filepath.Join(base, "store.json")
		if _, err := os.Stat(snap); err != nil {
			if _, werr := os.Stat(snap + ".wal"); werr != nil {
				continue // replica never materialized (nothing to verify)
			}
		}
		rs := replicaScrub{Name: name}
		rep, err := store.Scrub(store.OSFS{}, snap, "")
		if err != nil {
			rs.ReopenErr = "scrub: " + redactPath(err.Error(), dir)
		}
		rep.SnapshotPath = name + "/store.json"
		rep.WALPath = name + "/store.json.wal"
		rs.Report = rep
		if d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: snap}); err != nil {
			rs.ReopenErr = "reopen: " + redactPath(err.Error(), dir)
		} else {
			d.Abandon()
		}
		out = append(out, rs)
	}
	return out
}

// settleGoroutines waits for the goroutine count to return to the
// pre-run baseline, absorbing the benign lag between a Close returning
// and its workers exiting; whatever remains after the deadline leaked.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return 0
		}
		if time.Now().After(deadline) {
			return n - before
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// finalize computes the outcome's two digests.
func (o *runOutcome) finalize() {
	h := fnv.New64a()
	fmt.Fprintf(h, "mode=%s;seed=%d;failedOver=%v;quotaDenied=%v;rejected=%d;", o.Schedule.Mode, o.Schedule.Seed, o.FailedOver, o.QuotaDenied, o.Rejected)
	if o.RunErr != nil {
		fmt.Fprintf(h, "err=%s;", o.errString())
	}
	writeResult(h, &o.Result)
	for _, sc := range o.Scrubs {
		fmt.Fprintf(h, "scrub=%s/%v/%d/%d/%d/%d/%d/%s;", sc.Name, sc.Report.Clean,
			sc.Report.WALRecords, sc.Report.WALQuarantined, sc.Report.WALTornBytes,
			sc.Report.Entries, sc.Report.Checkpoints, sc.ReopenErr)
	}
	shards := make([]string, 0, len(o.Incidents))
	for name := range o.Incidents {
		shards = append(shards, name)
	}
	sort.Strings(shards)
	for _, name := range shards {
		for _, d := range o.Incidents[name] {
			fmt.Fprintf(h, "incident=%s/%s/%d/%s;", name, d.Trigger.Kind, d.Trigger.Seq, d.Digest)
		}
	}
	o.Digest = fmt.Sprintf("%016x", h.Sum64())
	o.OutcomeDigest = outcomeDigest(&o.Result)
}

// writeResult folds the full result — budget totals, every trial's
// accounting, the metrics and SLO snapshots, the autoscale decision
// stream — into h. Any scheduling nondeterminism anywhere in the
// pipeline shows up as a digest mismatch between twin runs.
func writeResult(h interface{ Write([]byte) (int, error) }, res *core.Result) {
	fmt.Fprintf(h, "dur=%d;energy=%.9g;trials=%d;hits=%d;misses=%d;target=%v;",
		res.TuningDuration, res.TuningEnergyKJ, res.TrialsRun, res.CacheHits, res.CacheMisses, res.ReachedTarget)
	for _, t := range res.Trials {
		fmt.Fprintf(h, "t=%d/%d/%.9g/%d/%d/%d/%s/%d;", t.Bracket, t.Rung, t.Accuracy,
			t.TrainCost.Duration, t.RetryCost.Duration, t.InferTuning.Duration, t.Outcome, t.Attempts)
	}
	for _, c := range res.Metrics.Counters {
		fmt.Fprintf(h, "c=%s/%d;", c.Name, c.Value)
	}
	for _, hg := range res.Metrics.Histograms {
		fmt.Fprintf(h, "h=%s/%d/%.9g;", hg.Name, hg.Count, hg.Sum)
	}
	for _, obj := range res.SLO.Objectives {
		fmt.Fprintf(h, "slo=%s/%d/%d;", obj.Name, obj.Events, obj.Errors)
	}
	if a := res.Autoscale; a != nil {
		fmt.Fprintf(h, "as=%d/%d/%d/%d/%016x;", a.Ticks, a.ScaleUps, a.ScaleDowns, len(a.ModePath), a.Digest)
	}
	for _, d := range res.Incidents {
		fmt.Fprintf(h, "inc=%s/%d/%s;", d.Trigger.Kind, d.Trigger.Seq, d.Digest)
	}
	fmt.Fprintf(h, "outcome=%s;", outcomeDigest(res))
}

// outcomeDigest hashes just the answer: the winning configuration, its
// accuracy, and the inference recommendation — the quantity the
// failover design promises converges with an unfaulted same-seed run.
func outcomeDigest(res *core.Result) string {
	h := fnv.New64a()
	keys := make([]string, 0, len(res.BestConfig))
	for k := range res.BestConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%.9g;", k, res.BestConfig[k])
	}
	fmt.Fprintf(h, "acc=%.9g;", res.BestAccuracy)
	rec := res.Recommendation
	fmt.Fprintf(h, "rec=%s/%s;", rec.Device, rec.Signature)
	cfgKeys := make([]string, 0, len(rec.Config))
	for k := range rec.Config {
		cfgKeys = append(cfgKeys, k)
	}
	sort.Strings(cfgKeys)
	for _, k := range cfgKeys {
		fmt.Fprintf(h, "%s=%.9g;", k, rec.Config[k])
	}
	fmt.Fprintf(h, "thr=%.9g;eps=%.9g;lat=%.9g", rec.Throughput, rec.EnergyPerSampleJ, rec.LatencySeconds)
	return fmt.Sprintf("%016x", h.Sum64())
}
