package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"edgetune/internal/budget"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/prof"
	"edgetune/internal/obs/slo"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// Options configures a tuning job (the EdgeTune inputs of §3.1: the
// workload, the parameter sets and ranges, the tuning and inference
// objectives, and the choice of tuning algorithms).
type Options struct {
	// Workload is the model/dataset pair to tune. Required.
	Workload *workload.Workload
	// Device is the edge inference target. Defaults to the i7 node.
	Device device.Device
	// BudgetKind selects the trial budget strategy: "epochs",
	// "dataset", or "multi" (default — the paper's contribution).
	BudgetKind string
	// ModelAlgo and InferAlgo select the search strategies of the two
	// servers; both default to BOHB, and they may differ (§3.1).
	ModelAlgo string
	InferAlgo string
	// Metric is the objective variant: runtime (default) or energy.
	Metric Metric
	// InitialConfigs is the per-bracket population (default 8).
	InitialConfigs int
	// Rungs is the number of halving rounds per bracket (default 8).
	Rungs int
	// MaxBrackets bounds repeated brackets when the target accuracy is
	// not reached (default 3).
	MaxBrackets int
	// StopAtTarget ends tuning early once the target accuracy is
	// reached. The paper's evaluation runs brackets to completion
	// (Figure 12 shows ~50 trials), so this defaults to off.
	StopAtTarget bool
	// SystemParams includes the training system parameters (GPU count)
	// in the joint space — EdgeTune's onefold mode. Inference-unaware
	// baselines switch it off.
	SystemParams bool
	// InferenceAware couples the Inference Tuning Server into the
	// objective and produces inference recommendations.
	InferenceAware bool
	// AccuracyOnly scores trials purely by accuracy (the Tune baseline's
	// objective), ignoring cost ratios.
	AccuracyOnly bool
	// FixedGPUs pins every trial to this GPU count when SystemParams is
	// off — the fixed system configuration a baseline user would pick
	// (§2.3.4). Zero means one GPU.
	FixedGPUs int
	// InferTrials is the number of configurations the inference server
	// evaluates per architecture (default 24).
	InferTrials int
	// Store is the shared historical database; one is created if nil.
	Store *store.Store
	// Seed drives all randomised components.
	Seed uint64

	// Fault configures deterministic fault injection across the trial
	// and inference paths; the zero value injects nothing.
	Fault fault.Config
	// MaxAttempts caps the attempts per training trial under injected
	// faults (default 3); it also bounds the inference server's
	// per-request retries.
	MaxAttempts int
	// Checkpoint serializes completed rungs into the Store so a
	// killed/cancelled job can resume without re-running them.
	Checkpoint bool

	// Trace receives deterministic spans for the whole pipeline —
	// tune → bracket → rung → trial → attempt on the tuner track, and
	// the serving spans of the inference server it shelters. Nil
	// disables tracing at single-pointer-check cost.
	Trace *obs.Tracer
	// Metrics is the registry the job's counters and histograms are
	// registered on; nil gets a private registry. Either way the final
	// snapshot lands in Result.Metrics.
	Metrics *obs.Registry
	// SLO receives the job's service-level events: the inference
	// server's serve-latency and rejection objectives plus the tuner's
	// trial-overrun objective. Nil disables SLO accounting; otherwise
	// the final evaluation lands in Result.SLO.
	SLO *slo.Evaluator
	// Flight is the always-on flight recorder: both pipelines feed it
	// a compact event stream (admissions, breaker/health transitions,
	// WAL and SLO edges), anomaly triggers
	// snapshot it into incident dossiers, and the dossiers land in
	// Result.Incidents. Nil disables recording at single-pointer-check
	// cost. In a cluster the recorder is per shard and outlives
	// individual Tune calls, so dossiers aggregate across failover.
	Flight *flight.Recorder

	// Tenant names the client this job runs on behalf of. When set it
	// stamps every inference submission's Client field, so the serving
	// path's overload-burst fault sites, tenant pprof label and request
	// spans see the same identity the cluster dispatcher admitted.
	Tenant string

	// Profile applies pprof labels (tenant, bracket, rung, fault class,
	// plus ProfLabels) on both pipelines, so CPU/heap
	// profiles captured from the debug endpoints are attributable per
	// dimension.
	Profile bool
	// ProfLabels is extra label pairs (alternating key, value) applied
	// alongside the built-in taxonomy — the cluster dispatcher uses it
	// to stamp the owning shard. Ignored unless Profile is set.
	ProfLabels []string

	// AfterRung, when non-nil, runs after each completed (and
	// checkpointed) rung; a non-nil return aborts the job. Chaos hook:
	// the rung checkpoint is already durable when it fires, so a kill
	// here simulates a node death at the exact point failover can
	// resume from.
	AfterRung func(bracket, rung int) error
}

func (o *Options) normalise() error {
	if o.Workload == nil {
		return errors.New("core: options need a workload")
	}
	if o.Device.Profile.Name == "" {
		o.Device = device.I7()
	}
	if o.BudgetKind == "" {
		o.BudgetKind = budget.KindMulti
	}
	if o.Metric == "" {
		o.Metric = MetricRuntime
	}
	if err := o.Metric.Validate(); err != nil {
		return err
	}
	if o.InitialConfigs == 0 {
		o.InitialConfigs = 8
	}
	if o.InitialConfigs < 1 {
		return fmt.Errorf("core: initial configs %d must be >= 1", o.InitialConfigs)
	}
	if o.Rungs == 0 {
		o.Rungs = 8
	}
	if o.Rungs < 1 {
		return fmt.Errorf("core: rungs %d must be >= 1", o.Rungs)
	}
	if o.MaxBrackets == 0 {
		o.MaxBrackets = 3
	}
	if o.MaxBrackets < 1 {
		return fmt.Errorf("core: max brackets %d must be >= 1", o.MaxBrackets)
	}
	if o.InferTrials == 0 {
		o.InferTrials = 24
	}
	if o.Store == nil {
		o.Store = store.New()
	}
	if err := o.Fault.Validate(); err != nil {
		return err
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	if o.MaxAttempts < 1 {
		return fmt.Errorf("core: max attempts %d must be >= 1", o.MaxAttempts)
	}
	return nil
}

// Trial outcomes: how the record's scores were obtained.
const (
	// OutcomeOK is a fully measured trial.
	OutcomeOK = "ok"
	// OutcomeDegraded means the inference term came from a fallback
	// (historical store or performance-model estimate) because live
	// inference tuning was unavailable.
	OutcomeDegraded = "degraded"
	// OutcomeFailed means every attempt failed; the trial was dropped
	// from the bracket without killing the job.
	OutcomeFailed = "failed"
)

// eta is the successive-halving reduction factor: each rung keeps the
// best 1/eta of its population. It is printed into the checkpoint key.
const eta = 2

// failedTrialScore ranks failed trials behind every real score while
// staying JSON-serialisable (checkpoints round-trip through encoding/
// json, which rejects infinities).
const failedTrialScore = math.MaxFloat64

// TrialRecord documents one completed training trial.
type TrialRecord struct {
	Bracket  int
	Rung     int
	Config   search.Config
	Alloc    budget.Allocation
	Accuracy float64
	// TrainCost is the simulated training cost of the trial.
	TrainCost perfmodel.Cost
	// Score is the minimised objective value.
	Score float64
	// InferCached reports whether the inference term came from the
	// historical store.
	InferCached bool

	// InferTuning is the pipelined inference-tuning cost charged while
	// this trial trained (zero on cache hits and for inference-unaware
	// runs).
	InferTuning perfmodel.Cost

	// Outcome is OutcomeOK, OutcomeDegraded, or OutcomeFailed.
	Outcome string
	// Attempts is how many runs this trial took (1 = no retries).
	Attempts int
	// RetryCost is the simulated cost of failed attempts plus backoff
	// waits, charged to the tuning budget on top of TrainCost.
	RetryCost perfmodel.Cost
}

// Result is the EdgeTune output (§3.1): the optimal trained
// configuration plus the inference recommendations, with full tuning
// cost accounting.
type Result struct {
	Workload string
	Device   string
	Metric   Metric

	// BestConfig is the winning joint configuration.
	BestConfig search.Config
	// BestAccuracy is the winning trial's model accuracy.
	BestAccuracy float64
	// MaxAccuracy is the highest accuracy any trial reached.
	MaxAccuracy float64
	// BestScore is the winning (minimised) objective value.
	BestScore float64
	// Recommendation is the optimal inference configuration for the
	// winning architecture (empty if not inference-aware).
	Recommendation store.Entry
	// RecommendationDegraded reports that the final recommendation came
	// from a fallback (historical store or estimate) because live
	// inference tuning was unavailable.
	RecommendationDegraded bool

	// TuningDuration is the simulated wall time of the tuning job: the
	// sum of training-trial durations, including failed attempts and
	// retry backoff waits. Inference tuning is pipelined inside
	// training trials (§3.3) and adds no duration.
	TuningDuration time.Duration
	// TuningEnergyKJ sums training energy plus the inference server's
	// (small) emulation energy.
	TuningEnergyKJ float64
	// InferTuningDuration is the total pipelined inference-tuning time,
	// reported for the containment analysis.
	InferTuningDuration time.Duration
	// ContainmentViolations counts trials whose inference tuning took
	// longer than the training trial sheltering it.
	ContainmentViolations int

	TrialsRun   int
	CacheHits   int
	CacheMisses int
	Trials      []TrialRecord
	// ReachedTarget reports whether the target accuracy was met.
	ReachedTarget bool

	// Resilience aggregates the fault-tolerance counters: injected
	// faults by class, retries, breaker transitions, degraded
	// outcomes, and rungs skipped by checkpoint resume.
	Resilience counters.ResilienceSnapshot

	// Metrics is the job's unified metrics snapshot — the same registry
	// cells behind Resilience plus the tuner and serving instruments
	// (trial histograms, per-device breakdowns, store writes). Sorted,
	// so same-seed runs serialise byte-identically.
	Metrics obs.Snapshot

	// SLO is the job's service-level evaluation at its simulated end
	// (zero value when Options.SLO is nil).
	SLO slo.Snapshot

	// Incidents is the flight recorder's dossiers — one per fired
	// trigger so far, built after the run quiesced (nil when
	// Options.Flight is nil or nothing tripped). With a per-shard
	// recorder the dossiers cover the shard's whole recorded history,
	// which is what lets them survive a mid-job failover rerun.
	Incidents []flight.Dossier
}

// retryBaseDelay is the simulated backoff base between trial attempts:
// attempt n waits base·2ⁿ·(1+jitter), and the wait is charged to the
// tuning budget like any other cost.
const retryBaseDelay = 5 * time.Second

// tuneJob is one Tune call: its progress (embedded, and the only part
// that is persisted), what the loop runs on, and what observes it.
type tuneJob struct {
	tuneProgress

	opts     Options
	res      *Result
	runner   *trial.Runner
	space    *search.Space // the training space the sampler draws from
	sampler  search.Sampler
	strat    budget.Strategy
	obj      Objective
	srv      *InferenceServer // nil unless Options.InferenceAware
	deadline *time.Timer      // every awaitOutcome of the job's trials; nil without srv
	inj      *fault.Injector
	recd     *counters.Resilience
	reg      *obs.Registry

	sloOverrun   *slo.Objective
	mTrials      *obs.Counter
	mTrialDur    *obs.Histogram
	mTrialEnergy *obs.Histogram

	// The open tune, bracket and rung spans (nil when tracing is off).
	tuneSp, brSp, rgSp *obs.Span

	// tailPlanned records that the open bracket is down to one survivor
	// and its remaining rungs are registered with the runner (see plan).
	tailPlanned bool

	// Hit/miss counters persist across restarts with a durable store,
	// so the result reports this run's delta, not lifetime totals.
	startHits, startMisses int

	// scheduled is how many trials the schedule folds; Trials is made
	// with room for them.
	scheduled int
	// ck is what checkpoints are built in (nil until the first one),
	// released to the next job by finish.
	ck *ckStorage

	// alerts is the SLO alert states a rung boundary polls into.
	alerts []slo.Alert
}

// Tune runs the EdgeTune onefold tuning loop (Algorithm 1): brackets of
// successive halving over the joint space, with asynchronous inference
// tuning folded into each trial's objective. Under fault injection the
// loop retries failed trials with exponential backoff (charged to the
// budget), degrades to historical or estimated inference data when the
// inference server is unavailable, and — with Checkpoint set —
// serializes completed rungs so a killed job resumes where it stopped.
func Tune(ctx context.Context, opts Options) (res Result, err error) {
	if err := opts.normalise(); err != nil {
		return res, err
	}
	recd := counters.NewResilienceOn(opts.Metrics)
	j := &tuneJob{opts: opts, res: &res, recd: recd, reg: recd.Registry()}
	defer j.finish()
	if err := j.setUp(); err != nil {
		return res, err
	}
	j.restore()
	for bracket := j.Bracket; bracket < opts.MaxBrackets; bracket++ {
		// StopAtTarget ends tuning at bracket granularity: the bracket
		// that first reaches the target accuracy completes its halving
		// schedule (confirming the winner at higher fidelity) and no
		// further bracket starts.
		if opts.StopAtTarget && j.ReachedTarget {
			break
		}
		j.openBracket(bracket)
		for rung := j.NextRung; rung < opts.Rungs; rung++ {
			if err := j.runRung(ctx, bracket, rung); err != nil {
				return res, err
			}
		}
		j.brSp.End(j.Tuning, obs.Int("bracket", int64(bracket)))
	}
	err = j.recommend(ctx)
	return res, err
}

// setUp builds what the loop runs on. The order is observable: the
// trial-overrun objective registers before the inference server's, and
// the tune span opens before anything that can fail.
func (j *tuneJob) setUp() error {
	opts, w := j.opts, j.opts.Workload
	j.res.Workload, j.res.Device, j.res.Metric = w.ID, opts.Device.Profile.Name, opts.Metric
	j.Version, j.Key = checkpointVersion, checkpointKey(opts)
	j.scheduled = opts.scheduledTrials()
	j.Trials = make([]TrialRecord, 0, j.scheduled)
	j.startHits, j.startMisses = opts.Store.Stats()
	j.sloOverrun = opts.SLO.Register(slo.Spec{
		Name:        "tuning/trial-overrun",
		Description: "90% of trials complete without retry cost or failure",
		Target:      0.90,
	})
	j.mTrials = j.reg.Counter("tune.trials")
	j.mTrialDur = j.reg.Histogram("tune.trial.duration.s", obs.SecondsBuckets)
	j.mTrialEnergy = j.reg.Histogram("tune.trial.energy.kj", obs.EnergyBucketsKJ)
	j.tuneSp = opts.Trace.Root(obs.TrackTuner, "tune", opts.Seed, 0)

	inj, err := fault.NewInjector(opts.Fault, opts.Seed, j.recd)
	if err != nil {
		return err
	}
	j.inj = inj
	if j.space, err = w.TrainSpace(opts.SystemParams); err != nil {
		return err
	}
	if j.sampler, err = search.NewSampler(opts.ModelAlgo, j.space, opts.Seed); err != nil {
		return err
	}
	if j.strat, err = budget.New(opts.BudgetKind); err != nil {
		return err
	}
	if j.runner, err = trial.NewRunner(w, perfmodel.TitanRTX(), opts.Seed); err != nil {
		return err
	}
	j.runner.SetFaultInjector(j.inj)
	j.obj = Objective{Metric: opts.Metric, TargetAccuracy: w.TargetAccuracy()}
	if !opts.InferenceAware {
		return nil
	}
	infSpace, err := w.InferenceSpace(opts.Device)
	if err != nil {
		return err
	}
	j.deadline = newDeadline()
	j.srv, err = NewInferenceServer(InferenceServerOptions{
		Device:      opts.Device,
		Space:       infSpace,
		Algo:        opts.InferAlgo,
		Metric:      opts.Metric,
		Trials:      opts.InferTrials,
		Store:       opts.Store,
		Seed:        opts.Seed,
		Fault:       j.inj,
		Recorder:    j.recd,
		MaxAttempts: opts.MaxAttempts,
		Trace:       opts.Trace,
		SLO:         opts.SLO,
		Flight:      opts.Flight,
		Profile:     opts.Profile,
		ProfLabels:  opts.ProfLabels,
	})
	return err
}

// finish assembles the Result on every exit path. The order matters:
// Close drains the serving SLO events, and the snapshots and dossiers
// come last, once the pipeline quiesced.
func (j *tuneJob) finish() {
	// Whatever path led here, trainings may be registered that no trial
	// will read; their helpers stop before anything they could still
	// touch is torn down, and before Tune returns.
	j.runner.Drain()
	if j.ck != nil {
		j.ck.release()
		j.ck = nil
	}
	res := j.res
	res.Trials, res.TrialsRun = j.Trials, j.TrialsRun
	res.TuningDuration, res.TuningEnergyKJ = j.Tuning, j.TuningEnergyKJ
	res.MaxAccuracy, res.ReachedTarget = j.MaxAccuracy, j.ReachedTarget
	if j.srv != nil {
		j.srv.Close()
	}
	if j.tuneSp != nil {
		j.tuneSp.End(res.TuningDuration,
			obs.Str("workload", res.Workload),
			obs.Str("device", res.Device),
			obs.Str("metric", string(j.opts.Metric)),
			obs.Str("budget", j.opts.BudgetKind),
			obs.Int("trials", int64(res.TrialsRun)))
	}
	res.Resilience = j.recd.Snapshot()
	res.Metrics = j.reg.Snapshot()
	res.SLO = j.opts.SLO.Snapshot()
	if j.opts.Flight != nil {
		res.Incidents = j.opts.Flight.Dossiers(flight.Sources{
			Metrics: res.Metrics,
			SLO:     res.SLO,
			Trace:   j.opts.Trace,
		})
	}
}

// openBracket samples the bracket's population, unless a checkpoint
// resumed the job inside this bracket with its survivors already in Pop.
func (j *tuneJob) openBracket(bracket int) {
	j.tailPlanned = false
	j.brSp = j.tuneSp.Child("bracket", j.Tuning)
	if j.Pop != nil {
		return
	}
	j.Pop = make([]member, 0, j.opts.InitialConfigs)
	for i := 0; i < j.opts.InitialConfigs; i++ {
		j.Pop = append(j.Pop, member{Config: j.sampler.Sample()})
	}
}

// runRung trains the population under this rung's allocation, keeps the
// best 1/η, and advances the progress, which the checkpoint then stores.
func (j *tuneJob) runRung(ctx context.Context, bracket, rung int) error {
	alloc := j.allocAt(rung)
	j.plan(bracket, rung)
	j.rgSp = j.brSp.Child("rung", j.Tuning)
	population := len(j.Pop)
	// The trial's sequential part, and its mini-batch loop unless a
	// helper ran it under these same labels (see plan), run on this
	// goroutine; inference work hops to the server's workers, which
	// re-apply their own.
	labels := j.rungLabels(bracket, rung)
	for i := range j.Pop {
		if err := ctx.Err(); err != nil {
			return err
		}
		var rec TrialRecord
		var err error
		prof.Do(ctx, func(ctx context.Context) {
			rec, err = j.runResilientTrial(ctx, j.Pop[i].Config, alloc)
		}, labels...)
		if err != nil {
			return err
		}
		rec.Bracket, rec.Rung = bracket, rung
		j.fold(i, rec)
	}
	sort.Slice(j.Pop, func(a, b int) bool { return j.Pop[a].Score < j.Pop[b].Score })
	keep := len(j.Pop) / eta
	if keep < 1 {
		keep = 1
	}
	j.Pop = j.Pop[:keep]
	if j.rgSp != nil {
		j.rgSp.End(j.Tuning,
			obs.Int("rung", int64(rung)),
			obs.Int("population", int64(population)),
			obs.Int("epochs", int64(alloc.Epochs)),
			obs.Float("fraction", alloc.DataFraction),
			obs.Int("survivors", int64(keep)))
	}
	if j.opts.Flight != nil {
		// Rung boundaries are the deterministic poll points for SLO
		// alert edges: every worker has drained the rung's trials, so
		// the alert states (and any rising edge they reveal) land at
		// the same simulated time every run.
		j.alerts = j.opts.SLO.Alerts(j.alerts[:0])
		j.opts.Flight.ObserveSLO(j.Tuning, j.alerts)
	}

	j.NextRung = rung + 1
	if j.NextRung >= j.opts.Rungs {
		// Bracket boundary: the next unit of work is a fresh population.
		j.Bracket, j.NextRung, j.Pop = bracket+1, 0, nil
	}
	if j.opts.Checkpoint {
		if err := j.checkpoint(); err != nil {
			return err
		}
	}
	if j.opts.AfterRung != nil {
		return j.opts.AfterRung(bracket, rung)
	}
	return nil
}

// allocAt is the allocation a rung trains under. The final rung always
// confirms survivors at the strategy's saturated budget, so every
// bracket ends with fully-trained evaluations.
func (j *tuneJob) allocAt(rung int) budget.Allocation {
	if rung == j.opts.Rungs-1 {
		return j.strat.Max()
	}
	return j.strat.At(rung + 1)
}

// rungLabels is the pprof label set of a rung's training-side work
// (nil, and free, unless Options.Profile).
func (j *tuneJob) rungLabels(bracket, rung int) []string {
	if !j.opts.Profile {
		return nil
	}
	return append([]string{
		prof.KeyTenant, tenantLabel(j.opts.Tenant),
		prof.KeyBracket, fmt.Sprint(bracket),
		prof.KeyRung, fmt.Sprint(rung),
	}, j.opts.ProfLabels...)
}

// plan registers with the runner, as a rung opens, every training whose
// inputs are decided by then: attempt 0 of each population member under
// this rung's allocation, and — once the bracket is down to one
// survivor, which every remaining rung will train again under
// allocations the strategy already fixes — attempt 0 of that survivor at
// each remaining rung, labelled as the rung it belongs to. The loop
// below does not change: it still runs every trial in config-index
// order on this goroutine, and only finds some trainings already done.
func (j *tuneJob) plan(bracket, rung int) {
	if j.tailPlanned {
		return
	}
	reqs, alloc := make([]trial.Request, len(j.Pop)), j.allocAt(rung)
	for i := range j.Pop {
		reqs[i] = trial.Request{Config: j.trialConfig(j.Pop[i].Config), Alloc: alloc}
	}
	j.runner.Register(j.rungLabels(bracket, rung), reqs...)
	if len(j.Pop) > 1 {
		return
	}
	j.tailPlanned = true
	for later := rung + 1; later < j.opts.Rungs; later++ {
		j.runner.Register(j.rungLabels(bracket, later), trial.Request{Config: reqs[0].Config, Alloc: j.allocAt(later)})
	}
}

// trialConfig is the configuration a trial of cfg trains and records:
// cfg itself when it holds a GPU count, as every draw from a
// SystemParams space does, and otherwise — the inference-unaware
// baselines, whose space has no GPU count — a copy with the fixed system
// configuration filled in.
func (j *tuneJob) trialConfig(cfg search.Config) search.Config {
	if _, ok := cfg[workload.ParamGPUs]; ok {
		return cfg
	}
	cfg = cfg.Clone()
	cfg[workload.ParamGPUs] = float64(max(j.opts.FixedGPUs, 1))
	return cfg
}

// fold applies member i's trial record to the totals, the sampler and
// the incumbent. It is the loop's one sequential point: records arrive
// in config-index order, because the sampler learns from the stream and
// the running total is the next trial's start time.
func (j *tuneJob) fold(i int, rec TrialRecord) {
	j.Pop[i].Score = rec.Score
	j.Trials = append(j.Trials, rec)
	j.TrialsRun++
	// Inference tuning is pipelined: it adds energy but no wall time
	// (§3.3). Failed attempts and backoff waits are charged like any
	// other cost.
	dur := rec.TrainCost.Duration + rec.RetryCost.Duration
	energyKJ := (rec.TrainCost.EnergyJ + rec.InferTuning.EnergyJ + rec.RetryCost.EnergyJ) / 1000
	j.Tuning += dur
	j.TuningEnergyKJ += energyKJ
	j.sloOverrun.Record(j.Tuning, rec.RetryCost.Duration == 0 && rec.Outcome != OutcomeFailed)

	j.mTrials.Inc()
	j.reg.Counter("tune.outcome." + rec.Outcome).Inc()
	j.mTrialDur.Observe(dur.Seconds())
	j.mTrialEnergy.Observe(energyKJ)

	if rec.Outcome == OutcomeFailed {
		// The trial is out of the bracket; nothing to learn from a
		// score that measures the injector, not the configuration.
		return
	}
	cfg := j.Pop[i].Config
	j.sampler.Observe(search.Observation{Config: cfg, Score: rec.Score, Budget: rec.Alloc.Cost()})
	// Winner selection is lexicographic: a trial that meets the target
	// accuracy always beats one that does not (the user asked for that
	// accuracy, §2.3); among equals the minimised objective decides.
	meets := rec.Accuracy >= j.obj.TargetAccuracy
	if !j.HasBest || meets && !j.BestMeets || meets == j.BestMeets && rec.Score < j.BestScore {
		j.HasBest, j.BestMeets = true, meets
		j.BestScore, j.BestConfig, j.BestAccuracy = rec.Score, cfg.Clone(), rec.Accuracy
	}
	if rec.Accuracy > j.MaxAccuracy {
		j.MaxAccuracy = rec.Accuracy
	}
	if meets {
		j.ReachedTarget = true
	}
}

// recommend reports the incumbent and, for an inference-aware job, the
// inference configuration the server recommends for its architecture.
func (j *tuneJob) recommend(ctx context.Context) error {
	if !j.HasBest {
		return errors.New("core: no successful trials")
	}
	res := j.res
	res.BestConfig, res.BestAccuracy, res.BestScore = j.BestConfig, j.BestAccuracy, j.BestScore
	if j.srv != nil {
		a, err := j.archOf(j.BestConfig)
		if err != nil {
			return err
		}
		out := <-j.submit(ctx, a, j.Tuning)
		switch {
		case out.Err == nil:
			res.Recommendation = out.Entry
			res.Recommendation.Config = out.Entry.Config.Clone() // the caller's own copy
		case ctx.Err() != nil:
			return ctx.Err()
		case transientInferError(out.Err):
			entry, derr := j.fallbackEntry(a)
			if derr != nil {
				return fmt.Errorf("core: recommendation unavailable: %w (fallback: %v)", out.Err, derr)
			}
			j.recd.AddDegraded()
			res.Recommendation = entry
			res.Recommendation.Config = entry.Config.Clone() // the caller's own copy
			res.RecommendationDegraded = true
		default:
			return out.Err
		}
		// Zero dropped writes on the happy path: everything the server
		// completed reaches the store before it is saved or measured.
		if err := j.srv.FlushWrites(); err != nil {
			return err
		}
	}

	// The final checkpoint (Bracket == MaxBrackets) is kept as a durable
	// completion marker, not cleared: a rerun of the same job restores
	// it, skips the whole schedule, and re-executes nothing — the
	// job-level analogue of the store's never-re-tune-twice contract.
	// Clearing it here would open a crash window in which a process
	// killed between the clear and its exit leaves no resume state and
	// repeats the entire run; a deterministic crash loop (same kill
	// point every restart) then never terminates.
	if j.opts.Checkpoint {
		if err := j.opts.Store.Sync(); err != nil {
			return err
		}
	}

	hits, misses := j.opts.Store.Stats()
	res.CacheHits = hits - j.startHits
	res.CacheMisses = misses - j.startMisses
	res.InferTuningDuration, res.ContainmentViolations = containment(j.Trials)
	return nil
}

// arch is one architecture as the inference server sees it.
type arch struct {
	sig           string
	flops, params float64
}

func (j *tuneJob) archOf(cfg search.Config) (arch, error) {
	flops, params, err := j.opts.Workload.PaperCost(cfg)
	return arch{sig: j.opts.Workload.Signature(cfg), flops: flops, params: params}, err
}

// submit fires the job's inference request for a at simulated time at.
func (j *tuneJob) submit(ctx context.Context, a arch, at time.Duration) <-chan InferOutcome {
	return j.srv.Submit(ctx, InferRequest{
		Signature:      a.sig,
		FLOPsPerSample: a.flops,
		Params:         a.params,
		SubmitTime:     at,
		Client:         j.opts.Tenant,
	})
}

// inferTerm is the part of an entry the model objective reads.
func inferTerm(e store.Entry) perfmodel.InferResult {
	return perfmodel.InferResult{Throughput: e.Throughput, EnergyPerSampleJ: e.EnergyPerSampleJ}
}

// runResilientTrial wraps runTrial with the retry policy: injected
// failures are retried with exponential backoff and deterministic
// jitter up to MaxAttempts, every failed attempt and backoff wait is
// charged to the record's RetryCost, and an exhausted trial is marked
// OutcomeFailed rather than killing the whole job. The trial and each
// attempt become spans under the open rung span, placed on the simulated
// timeline from the job's running total; failed attempts and backoff
// waits push the next attempt later, exactly as they are charged.
func (j *tuneJob) runResilientTrial(ctx context.Context, cfg search.Config, alloc budget.Allocation) (TrialRecord, error) {
	start := j.Tuning
	var wasted perfmodel.Cost
	trSp := j.rgSp.Child("trial", start)
	// Retry attempts carry the class of the fault that killed the
	// previous one as a pprof label, so a profile shows what the
	// injector's turbulence actually costs, per class.
	var retryLabels []string
	for attempt := 0; ; attempt++ {
		attStart := start + wasted.Duration
		attSp := trSp.Child("attempt", attStart)
		var rec TrialRecord
		var err error
		prof.Do(ctx, func(ctx context.Context) {
			rec, err = j.runTrial(ctx, trial.Request{Config: cfg, Alloc: alloc, Attempt: attempt, Span: attSp, Start: attStart})
		}, retryLabels...)
		if err == nil {
			rec.Attempts = attempt + 1
			rec.RetryCost = wasted
			if rec.Outcome == "" {
				rec.Outcome = OutcomeOK
			}
			if attSp != nil {
				attSp.End(attStart+rec.TrainCost.Duration, obs.Int("attempt", int64(attempt)),
					obs.Str("outcome", "ok"), obs.Float("energyJ", rec.TrainCost.EnergyJ))
			}
			if trSp != nil {
				endTrial(trSp, start+rec.RetryCost.Duration+rec.TrainCost.Duration, cfg, alloc,
					obs.Str("outcome", rec.Outcome),
					obs.Float("accuracy", rec.Accuracy),
					obs.Bool("cached", rec.InferCached),
					obs.Float("energyJ", rec.TrainCost.EnergyJ+rec.InferTuning.EnergyJ+rec.RetryCost.EnergyJ))
			}
			return rec, nil
		}
		if attSp != nil {
			label := "error"
			if fault.IsFault(err) {
				label = "fault:" + string(fault.ClassOf(err))
			}
			attSp.End(attStart+rec.TrainCost.Duration, obs.Int("attempt", int64(attempt)),
				obs.Str("outcome", label), obs.Float("energyJ", rec.TrainCost.EnergyJ))
		}
		if cerr := ctx.Err(); cerr != nil {
			// The job was cancelled; a checkpointed run resumes later.
			if trSp != nil {
				endTrial(trSp, attStart+rec.TrainCost.Duration, cfg, alloc)
			}
			return rec, cerr
		}
		if !fault.IsFault(err) {
			// Organic errors (invalid configurations, broken platforms)
			// are bugs to surface, not turbulence to ride out.
			if trSp != nil {
				endTrial(trSp, attStart+rec.TrainCost.Duration, cfg, alloc)
			}
			return rec, err
		}
		if j.opts.Profile {
			retryLabels = []string{prof.KeyFaultClass, string(fault.ClassOf(err))}
		}
		// Charge what the failed attempt consumed before dying. The
		// inference tuning it sheltered is pipelined, so only its
		// energy counts (as for successful trials).
		wasted.Duration += rec.TrainCost.Duration
		wasted.EnergyJ += rec.TrainCost.EnergyJ + rec.InferTuning.EnergyJ
		if attempt+1 >= j.opts.MaxAttempts {
			if trSp != nil {
				endTrial(trSp, start+wasted.Duration, cfg, alloc,
					obs.Str("outcome", OutcomeFailed), obs.Float("energyJ", wasted.EnergyJ))
			}
			return TrialRecord{
				Config:    cfg,
				Alloc:     alloc,
				Outcome:   OutcomeFailed,
				Attempts:  attempt + 1,
				RetryCost: wasted,
				Score:     failedTrialScore,
			}, nil
		}
		j.recd.AddRetry()
		// Exponential backoff with deterministic jitter, on simulated
		// time: the cluster isn't hammered and the budget pays for the
		// wait.
		backoff := retryBaseDelay << uint(attempt)
		site := fmt.Sprintf("backoff/%s|e%d|f%g", cfg.Key(), alloc.Epochs, alloc.DataFraction)
		jitter := j.inj.Uniform(site, attempt)
		wasted.Duration += backoff + time.Duration(jitter*float64(retryBaseDelay))
	}
}

// endTrial ends a trial's span at end with its configuration and
// allocation and then attrs, the way it ended. The attributes are built
// on the caller's stack: End copies them into the tracer.
func endTrial(sp *obs.Span, end time.Duration, cfg search.Config, alloc budget.Allocation, attrs ...obs.Attr) {
	all := append(make([]obs.Attr, 0, 7),
		obs.Str("config", cfg.Key()),
		obs.Int("epochs", int64(alloc.Epochs)),
		obs.Float("fraction", alloc.DataFraction))
	sp.End(end, append(all, attrs...)...)
}

// runTrial executes one attempt with the pipelined inference request of
// Algorithm 1: the request is fired before training starts, and the
// result is awaited before the trial's objective is computed. When the
// inference path is unavailable (breaker open, retries exhausted,
// reply dropped), the trial degrades to the historical store or a
// performance-model estimate instead of failing — the outcome is
// marked OutcomeDegraded so reports distinguish measured from
// estimated scores.
func (j *tuneJob) runTrial(ctx context.Context, req trial.Request) (TrialRecord, error) {
	rec := TrialRecord{Config: j.trialConfig(req.Config), Alloc: req.Alloc}

	a, err := j.archOf(req.Config)
	if err != nil {
		return rec, err
	}
	var infCh <-chan InferOutcome
	if j.srv != nil {
		infCh = j.submit(ctx, a, req.Start)
	}

	req.Config = rec.Config
	trialRes, err := j.runner.Run(ctx, req)
	if err != nil {
		// Surface the partial cost so the retry loop can charge it, and
		// drain the pipelined inference request: its tuning energy is
		// part of the wasted attempt, and leaving it in flight would
		// let a retry race against its completion.
		rec.TrainCost = trialRes.Cost
		if infCh != nil {
			if out, aerr := awaitOutcome(ctx, j.deadline, infCh, requestTimeout); aerr == nil || out.TuningCost.Duration > 0 {
				rec.InferTuning = out.TuningCost
			}
		}
		return rec, err
	}
	rec.Accuracy = trialRes.Accuracy
	rec.TrainCost = trialRes.Cost

	// Projected cost of training this configuration at the saturated
	// budget (full data, most epochs), so that trials from different
	// rungs score comparably: a cheap low-fidelity trial must not win on
	// cost it never paid; its penalty is its lower accuracy.
	fullCost, err := perfmodel.TrainingCost(perfmodel.TrainSpec{
		FLOPsPerSample: a.flops,
		Params:         a.params,
		Samples:        j.opts.Workload.Split().Train.PaperSamples(),
		Epochs:         j.strat.Max().Epochs,
		BatchSize:      int(rec.Config[workload.ParamTrainBatch]),
		GPUs:           int(rec.Config[workload.ParamGPUs]),
	}, j.runner.GPUProfile())
	if err != nil {
		return rec, err
	}

	var inf perfmodel.InferResult
	if j.srv != nil {
		out, err := awaitOutcome(ctx, j.deadline, infCh, requestTimeout)
		switch {
		case err == nil:
			rec.InferCached = out.Cached
			rec.InferTuning = out.TuningCost
			inf = inferTerm(out.Entry)
		case ctx.Err() != nil:
			return rec, ctx.Err()
		case transientInferError(err):
			rec.InferTuning = out.TuningCost
			// One cheap resubmit first: a dropped reply whose result
			// reached the store resolves instantly from the fast path.
			j.recd.AddRetry()
			retry := <-j.submit(ctx, a, req.Start)
			if retry.Err == nil {
				rec.InferCached = retry.Cached
				rec.InferTuning = rec.InferTuning.Add(retry.TuningCost)
				inf = inferTerm(retry.Entry)
				break
			}
			// Graceful degradation: historical entry, else estimate.
			entry, derr := j.fallbackEntry(a)
			if derr != nil {
				return rec, fmt.Errorf("core: inference unavailable: %w (fallback: %v)", err, derr)
			}
			j.recd.AddDegraded()
			rec.Outcome = OutcomeDegraded
			inf = inferTerm(entry)
		default:
			return rec, err
		}
	}

	switch {
	case j.opts.AccuracyOnly:
		rec.Score = 1 - trialRes.Accuracy
	case j.srv != nil:
		rec.Score = j.obj.ModelScore(fullCost, inf, trialRes.Accuracy)
	default:
		rec.Score = j.obj.TrainOnlyScore(fullCost, trialRes.Accuracy)
	}
	return rec, nil
}

// fallbackEntry produces degraded inference data for an architecture
// when live tuning is unavailable: the historical store entry if one
// exists (read through the server's write-behind buffer, so freshly
// tuned but unflushed results still count), otherwise the performance
// model's estimate of the device's untuned default configuration.
func (j *tuneJob) fallbackEntry(a arch) (store.Entry, error) {
	if e, err := j.srv.LookupStored(a.sig); err == nil {
		return e, nil
	}
	return DefaultEntry(a.sig, j.opts.Device, a.flops, a.params)
}

// containment sums the pipelined inference-tuning durations and counts
// trials where that duration exceeded the sheltering training trial.
func containment(trials []TrialRecord) (time.Duration, int) {
	var total time.Duration
	violations := 0
	for _, t := range trials {
		total += t.InferTuning.Duration
		if t.InferTuning.Duration > t.TrainCost.Duration {
			violations++
		}
	}
	return total, violations
}
