// Package edgetune is an inference-aware multi-parameter tuning server
// for deep-learning workloads, reproducing the system of Rocha, Felber,
// Schiavoni and Chen, "EdgeTune: Inference-Aware Multi-Parameter
// Tuning" (ACM/IFIP Middleware 2022).
//
// EdgeTune tunes model hyperparameters, training hyperparameters, and
// system parameters jointly (the onefold approach), while a dedicated
// Inference Tuning Server asynchronously explores inference batch size
// and edge-device system parameters so that the tuning objective can
// balance model accuracy against deployed inference performance. Trials
// run under the novel multi-budget strategy, which grows the number of
// epochs and the dataset fraction simultaneously.
//
// A minimal run:
//
//	report, err := edgetune.Tune(ctx, edgetune.Job{Workload: "IC"})
//	if err != nil { ... }
//	fmt.Println(report.Recommendation.BatchSize, report.Recommendation.Cores)
//
// The package also exposes the batching scenarios of the paper's §3.4
// (fixed-frequency servers and Poisson multi-streams) for tuning the
// inference batch size of an already-trained model.
package edgetune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/hotloop"
	"edgetune/internal/obs"
	"edgetune/internal/obs/analyze"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/slo"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

// Metric selects the optimisation objective.
type Metric string

// Objective metrics (§4.4 of the paper).
const (
	// MetricRuntime minimises (training time × inference latency) / accuracy.
	MetricRuntime Metric = "runtime"
	// MetricEnergy minimises (training energy × inference energy) / accuracy.
	MetricEnergy Metric = "energy"
)

// BudgetKind selects the trial budget strategy (§4.3).
type BudgetKind string

// Budget strategies.
const (
	// BudgetEpochs grows only the epoch count (classic multi-fidelity).
	BudgetEpochs BudgetKind = "epochs"
	// BudgetDataset grows only the dataset fraction at one epoch.
	BudgetDataset BudgetKind = "dataset"
	// BudgetMulti grows both dimensions simultaneously (Algorithm 2,
	// the paper's contribution and the default).
	BudgetMulti BudgetKind = "multi"
)

// Algorithm names a search strategy.
type Algorithm string

// Search algorithms (§4.2).
const (
	AlgorithmBOHB   Algorithm = "bohb"
	AlgorithmRandom Algorithm = "random"
	AlgorithmGrid   Algorithm = "grid"
)

// Workloads returns the built-in workload identifiers (Table 1):
// IC (image classification), SR (speech recognition), NLP (natural
// language processing), and OD (object detection).
func Workloads() []string { return workload.IDs() }

// Devices returns the built-in edge-device names (§2.1's testbed):
// armv7, i7, and rpi3b+.
func Devices() []string {
	devs := device.All()
	names := make([]string, len(devs))
	for i, d := range devs {
		names[i] = d.Profile.Name
	}
	return names
}

// Job describes one tuning job: the paper's EdgeTune inputs (§3.1).
type Job struct {
	// Workload is the model/dataset pair to tune: IC, SR, NLP, or OD.
	// Required.
	Workload string
	// Device is the edge inference target (default "i7").
	Device string
	// CustomDevice tunes for a user-described device instead of a
	// built-in one; it takes precedence over Device.
	CustomDevice *DeviceProfile
	// Budget is the trial budget strategy (default BudgetMulti).
	Budget BudgetKind
	// Metric is the objective variant (default MetricRuntime).
	Metric Metric
	// ModelAlgorithm and InferenceAlgorithm select the search strategy
	// of each server independently (§3.1); both default to BOHB.
	ModelAlgorithm     Algorithm
	InferenceAlgorithm Algorithm
	// Hierarchical switches to the two-tier baseline of §4.1 instead of
	// the onefold default.
	Hierarchical bool
	// WithoutInference disables the Inference Tuning Server, producing
	// a classic accuracy-only tuner (for comparisons).
	WithoutInference bool
	// StopAtTarget ends tuning once a trial reaches the workload's
	// target accuracy (bracket granularity).
	StopAtTarget bool
	// Configs, Rungs, and Brackets size the successive-halving search
	// (defaults 8, 8, 3).
	Configs  int
	Rungs    int
	Brackets int
	// InferenceTrials is the number of inference configurations
	// explored per architecture (default 24).
	InferenceTrials int
	// StorePath optionally persists the historical inference-tuning
	// database across jobs (§3.4), crash-consistently: every store
	// mutation is appended to a per-record checksummed write-ahead log
	// (StorePath + ".wal") and fsynced before it is acknowledged, the
	// log is periodically compacted into the JSON snapshot at StorePath,
	// and opening the job recovers whatever a previous crash left
	// behind — torn tails truncated, corrupt records quarantined, the
	// salvage reported in Report.StoreRecovery.
	StorePath string
	// StoreSnapshotEvery compacts the WAL into a fresh snapshot once
	// this many records accumulate (default 256; negative disables
	// periodic compaction). Only meaningful with StorePath.
	StoreSnapshotEvery int
	// StoreKillAfterAppends, when positive, terminates the whole
	// process (exit code store.KillExitCode) immediately after the Nth
	// durably acknowledged WAL append — the chaos hook the
	// crash/restart harness uses to prove recovery. Only meaningful
	// with StorePath.
	StoreKillAfterAppends int
	// Autoscale enables the inference server's SLO-driven device-pool
	// autoscaler and graceful-degradation ladder: simulated replicas of
	// the target device are added under saturation or capacity loss
	// (each charging a warm-up cost to the tuning budget), retired again
	// with hysteresis when load recedes, and when scaling out is not
	// enough the server sheds background work, disables hedging, and
	// finally serves critical requests only — stepping back out as the
	// burn rate recovers. The run's control-loop summary lands in
	// Report.Autoscale.
	Autoscale bool
	// AutoscaleMin and AutoscaleMax bound the replica count (defaults 1
	// and 4). Only meaningful with Autoscale.
	AutoscaleMin int
	AutoscaleMax int
	// Seed drives all randomised components; jobs are fully
	// deterministic given a seed.
	Seed uint64
	// Tenant names the client submitting this job. It keys the serving
	// layer's per-client admission (and the cluster dispatcher's quota
	// gate), so per-tenant rejection counters and the tenant-rejections
	// SLO attribute pressure to the right client. Empty means
	// per-signature clients, the single-tenant default.
	Tenant string
	// Faults injects deterministic failures into the trial and
	// inference paths for resilience testing; the zero value injects
	// nothing. Fault decisions derive from the job seed, so a faulty
	// job replays exactly.
	Faults FaultConfig
	// MaxTrialAttempts caps retries per training trial under injected
	// faults (default 3).
	MaxTrialAttempts int
	// Checkpoint records completed successive-halving rungs in the
	// historical store (and, with StorePath set, on disk) so an
	// interrupted job resumes without re-running finished trials.
	Checkpoint bool
	// TracePath, when set, writes the job's deterministic span trace as
	// JSON Lines (one span per line, sorted by start time). Same-seed
	// jobs produce byte-identical files.
	TracePath string
	// TraceChromePath, when set, writes the same trace in Chrome
	// trace-event format, loadable in Perfetto or chrome://tracing.
	TraceChromePath string
	// DebugAddr, when set (e.g. "127.0.0.1:6060"), serves /metrics,
	// /metrics.json, /metrics/prom, /healthz, /slo, /analyze,
	// /debug/goroutines, /debug/vars, and /debug/pprof for the duration
	// of the job. /analyze renders a live trace analysis, so setting
	// DebugAddr enables tracing even without TracePath.
	DebugAddr string
	// Profile turns on the profiling plane: pprof labels (tenant,
	// bracket/rung, fault class, serving priority — plus shard under a
	// cluster) attribute CPU/heap profiles captured from DebugAddr's
	// pprof endpoints, and per-stage allocation probes land in
	// Report.Profile and on the metrics surfaces as
	// prof.allocs-per-op.<stage> / prof.bytes-per-op.<stage> gauges.
	// Measured alloc values can wobble a few allocs across runs, so
	// digest-compared deterministic runs leave this off.
	Profile bool
	// Flight turns on the always-on flight recorder: a preallocated
	// fixed-slot ring continuously records a compact event stream from
	// both pipelines (span completions, SLO alert edges, autoscale and
	// ladder decisions, admission rejections, breaker and health
	// transitions, WAL appends and recovery) with zero steady-state
	// allocations, and anomaly triggers — an SLO alert's rising edge,
	// ladder engagement, a crash-recovery salvage, a mass device
	// failure — snapshot it into deterministic incident dossiers,
	// summarised in Report.Incidents. Enabling Flight also enables
	// tracing so dossiers carry a windowed trace analysis. Same-seed
	// runs produce byte-identical dossiers (leave Profile off for
	// digest-compared runs).
	Flight bool
	// IncidentsDir, when set (implies Flight), writes each incident
	// dossier as a self-contained JSON artefact into this directory,
	// named incident-<seq>-<trigger>.json; tracetool incident show/diff
	// reads them back.
	IncidentsDir string
}

// FaultConfig sets per-site injection probabilities for the supported
// failure classes (all in [0,1]; zero disables a class).
type FaultConfig struct {
	// TrialCrash kills a training trial partway through.
	TrialCrash float64
	// TrialNaN makes a trial diverge after consuming its full budget.
	TrialNaN float64
	// Straggler inflates a trial's cost by up to StragglerFactor.
	Straggler float64
	// StragglerFactor is the maximum slowdown multiplier (default 4).
	StragglerFactor float64
	// DeviceFlap makes the emulated edge device drop an inference
	// tuning attempt.
	DeviceFlap float64
	// DeviceBrownout slows an inference tuning attempt by up to
	// BrownoutFactor without failing it — the thermally-throttled
	// straggler the inference server hedges against.
	DeviceBrownout float64
	// BrownoutFactor is the maximum brown-out slowdown (default 6).
	BrownoutFactor float64
	// OverloadBurst sheds an inference submission at the admission
	// gate, emulating a synthetic traffic spike.
	OverloadBurst float64
	// StoreWrite fails a write to the historical store.
	StoreWrite float64
	// DroppedReply loses an inference server reply in flight.
	DroppedReply float64
	// The disk classes fire per filesystem operation of the durable
	// store (Job.StorePath), emulating flaky edge flash: DiskTornWrite
	// cuts a write short, DiskCrash writes half a record and kills the
	// disk, DiskBitFlip silently corrupts one written byte, DiskFull
	// fails a write with ENOSPC, DiskSlowFsync stalls (but completes) an
	// fsync.
	DiskTornWrite float64
	DiskCrash     float64
	DiskBitFlip   float64
	DiskFull      float64
	DiskSlowFsync float64
	// The cluster classes fire on a sharded deployment (NewCluster):
	// ShardKill crashes a job's shard primary at a rung boundary while
	// its follower still stands, NetPartition drops a WAL frame on the
	// primary→follower replication link, FollowerLag delays frames in
	// flight (they land in order at the next ship or at failover
	// catch-up). They are inert in a single-node Tune.
	ShardKill    float64
	NetPartition float64
	FollowerLag  float64
	// The autoscale classes exercise the SLO-driven device-pool
	// autoscaler (Job.Autoscale): FlashCrowd injects a phantom arrival
	// surge that inflates the in-system load signal until it decays,
	// MassDeviceFail quarantines the entire device pool at once (at most
	// once per job), ScaleStall swallows a scale-up so the warm-up cost
	// is charged but the replica never joins. They are inert without
	// Autoscale.
	FlashCrowd     float64
	MassDeviceFail float64
	ScaleStall     float64
}

// anyDisk reports whether any disk-fault class is enabled.
func (f FaultConfig) anyDisk() bool {
	return f.DiskTornWrite > 0 || f.DiskCrash > 0 || f.DiskBitFlip > 0 ||
		f.DiskFull > 0 || f.DiskSlowFsync > 0
}

func (f FaultConfig) toInternal() fault.Config {
	return fault.Config{
		TrialCrash:      f.TrialCrash,
		TrialNaN:        f.TrialNaN,
		Straggler:       f.Straggler,
		StragglerFactor: f.StragglerFactor,
		DeviceFlap:      f.DeviceFlap,
		DeviceBrownout:  f.DeviceBrownout,
		BrownoutFactor:  f.BrownoutFactor,
		OverloadBurst:   f.OverloadBurst,
		StoreWrite:      f.StoreWrite,
		DroppedReply:    f.DroppedReply,
		DiskTornWrite:   f.DiskTornWrite,
		DiskCrash:       f.DiskCrash,
		DiskBitFlip:     f.DiskBitFlip,
		DiskFull:        f.DiskFull,
		DiskSlowFsync:   f.DiskSlowFsync,
		ShardKill:       f.ShardKill,
		NetPartition:    f.NetPartition,
		FollowerLag:     f.FollowerLag,
		FlashCrowd:      f.FlashCrowd,
		MassDeviceFail:  f.MassDeviceFail,
		ScaleStall:      f.ScaleStall,
	}
}

// The report sections below are the pipeline's own snapshot types, so
// Report.Metrics, Report.Resilience and Report.StoreRecovery encode in
// the camelCase JSON that /metrics.json, /slo and every incident dossier
// use.
type (
	// ResilienceReport is a job's fault-tolerance accounting: injected
	// faults by class, retries, breaker transitions, degraded outcomes,
	// resumed rungs, and the serving layer's admission, hedging,
	// quarantine and drain counters.
	ResilienceReport = counters.ResilienceSnapshot
	// FaultCount is how often one injected fault class fired.
	FaultCount = counters.FaultCount

	// MetricsReport is a job's metrics snapshot, sorted by name within
	// each kind so serialisations are byte-stable across same-seed runs.
	MetricsReport = obs.Snapshot
	// MetricCounter is one named counter of a metrics report.
	MetricCounter = obs.CounterStat
	// MetricGauge is one named gauge of a metrics report.
	MetricGauge = obs.GaugeStat
	// MetricHistogram is one histogram of a metrics report, with
	// pre-computed quantiles.
	MetricHistogram = obs.HistogramStat
	// MetricBucket is one histogram bucket: the count of observations at
	// or below the upper bound ("+Inf" for the overflow bucket).
	MetricBucket = obs.BucketStat

	// StoreRecovery reports a durable store's crash-recovery salvage: how
	// the state was reconstructed and what could not be kept.
	StoreRecovery = store.RecoveryReport
)

// InferenceRecommendation is the deployment configuration EdgeTune
// outputs alongside the tuned model (§3.1).
type InferenceRecommendation struct {
	// Device is the edge device the recommendation targets.
	Device string
	// BatchSize is the optimal inference batch size.
	BatchSize int
	// Cores is the optimal CPU core count.
	Cores int
	// FrequencyGHz is the optimal CPU frequency.
	FrequencyGHz float64
	// Throughput is the predicted samples/second at this configuration.
	Throughput float64
	// EnergyPerSampleJ is the predicted joules per sample.
	EnergyPerSampleJ float64
	// LatencySeconds is the predicted per-batch latency.
	LatencySeconds float64
}

// Report is a completed tuning job's outcome.
type Report struct {
	// Workload and Device echo the job.
	Workload string
	Device   string
	// Metric echoes the objective used.
	Metric Metric
	// BestConfig is the winning joint configuration (model
	// hyperparameter, training batch size, and GPU count).
	BestConfig map[string]float64
	// BestAccuracy is the winning trial's accuracy; MaxAccuracy is the
	// highest accuracy any trial reached.
	BestAccuracy float64
	MaxAccuracy  float64
	// ReachedTarget reports whether any trial met the workload's target
	// accuracy.
	ReachedTarget bool
	// TuningMinutes and TuningEnergyKJ account the tuning phase in the
	// paper's units (simulated).
	TuningMinutes  float64
	TuningEnergyKJ float64
	// TrialsRun counts training trials.
	TrialsRun int
	// CacheHits and CacheMisses report historical-store reuse.
	CacheHits   int
	CacheMisses int
	// Recommendation is the inference deployment advice (zero when
	// WithoutInference was set).
	Recommendation InferenceRecommendation
	// RecommendationDegraded marks a recommendation that came from a
	// fallback because live inference tuning was unavailable.
	RecommendationDegraded bool
	// Resilience reports fault injection and recovery accounting.
	Resilience ResilienceReport
	// Metrics is the job's full metrics snapshot: every counter, gauge,
	// and histogram the pipeline registered, sorted by name. The
	// resilience counters above read the same cells; Metrics adds the
	// tuner and serving instruments (trial duration/energy histograms,
	// per-device breakdowns, store writes).
	Metrics MetricsReport
	// SLO evaluates the job's service-level objectives (serving latency,
	// overload rejections, trial budget overruns) with multi-window
	// burn-rate alerts over the simulated clock.
	SLO SLOReport
	// StoreRecovery describes what opening the durable store salvaged
	// from a previous crash (nil without Job.StorePath).
	StoreRecovery *StoreRecovery
	// Autoscale summarises the device-pool autoscaler's control loop
	// (nil unless Job.Autoscale was set).
	Autoscale *AutoscaleReport
	// Profile is the per-stage allocation probes (nil unless
	// Job.Profile was set). The same values appear in Metrics as
	// prof.allocs-per-op.<stage> / prof.bytes-per-op.<stage> gauges.
	Profile []ProfileProbe
	// Incidents summarises the dossiers the flight recorder cut (nil
	// unless Job.Flight was set and a trigger fired). The full
	// artefacts are the JSON files at each Incident.Path when
	// Job.IncidentsDir was set.
	Incidents []Incident
}

// Digest condenses the outcome a user acts on — the winning
// configuration, its accuracy and the inference recommendation — into a
// hash. Runs that must converge (a killed-and-resumed job and an
// uninterrupted one, a failed-over cluster job and a single-node one)
// are compared by it.
func (r *Report) Digest() string {
	h := fnv.New64a()
	keys := make([]string, 0, len(r.BestConfig))
	for k := range r.BestConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%.9g;", k, r.BestConfig[k])
	}
	fmt.Fprintf(h, "acc=%.9g;", r.BestAccuracy)
	rec := r.Recommendation
	fmt.Fprintf(h, "rec=%s/%d/%d/%.9g/%.9g/%.9g/%.9g", rec.Device, rec.BatchSize,
		rec.Cores, rec.FrequencyGHz, rec.Throughput, rec.EnergyPerSampleJ, rec.LatencySeconds)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Incident summarises one incident dossier cut by the flight recorder
// (Job.Flight): which trigger fired, where on the simulated clock, and
// how much of the event window the dossier holds. The self-contained
// artefact — trigger, window timeline, metrics and SLO snapshots,
// windowed trace analysis, digest — is the JSON file at Path when the
// job set IncidentsDir.
type Incident struct {
	// Trigger is the trigger kind: "slo-alert", "ladder-engaged",
	// "shard-failover", "crash-salvage", "mass-device-fail", or
	// "manual".
	Trigger string
	// Detail is the trigger's context: the alerting objective, the
	// failed-over shard, the engaged ladder mode.
	Detail string
	// AtMinutes is the trigger's simulated time.
	AtMinutes float64
	// Seq orders the run's triggers from zero.
	Seq int
	// Events counts the timeline events inside the dossier's window.
	Events int
	// Truncated marks a window whose left edge the ring had already
	// overwritten.
	Truncated bool
	// Digest is the artefact's FNV-1a content digest.
	Digest string
	// Path is the written JSON artefact (empty without IncidentsDir).
	Path string
}

// ProfileProbe is one hot-loop stage's allocation measurement: the
// average heap allocations and bytes one operation of the stage costs,
// over Runs probe runs on self-contained throwaway state.
type ProfileProbe struct {
	Stage       string
	Runs        int
	AllocsPerOp float64
	BytesPerOp  float64
}

// AutoscaleReport summarises the autoscaler's run: how often it
// scaled, how deep the graceful-degradation ladder went, the warm-up
// bill, and the deterministic digest of the decision stream. Stalled
// scale-ups (the ScaleStall fault class) appear in the
// "autoscale.stalls" counter of Report.Metrics.
type AutoscaleReport struct {
	// Ticks counts control-loop evaluations (one per inference
	// submission); Decisions counts the actions emitted.
	Ticks     int64
	Decisions int
	// ScaleUps and ScaleDowns count replica additions and retirements.
	ScaleUps   int
	ScaleDowns int
	// DegradeSteps and RecoverSteps count degradation-ladder
	// transitions. Modes are "normal", "shed-background", "no-hedging",
	// and "critical-only".
	DegradeSteps int
	RecoverSteps int
	DeepestMode  string
	FinalMode    string
	// FinalReplicas is the active replica count at the last tick.
	FinalReplicas int
	// WarmupMinutes and WarmupEnergyKJ are the total replica warm-up
	// costs, already included in TuningMinutes and TuningEnergyKJ.
	WarmupMinutes  float64
	WarmupEnergyKJ float64
	// Digest is the FNV-1a fold of the decision stream, hex-encoded;
	// same-seed jobs produce identical digests.
	Digest string
}

// SLOWindowBurn is one alert window's burn evaluation.
type SLOWindowBurn struct {
	// WindowMinutes is the window length in simulated minutes (clamped
	// to the run horizon for short runs).
	WindowMinutes float64
	// Events and Errors count the window's observations.
	Events int64
	Errors int64
	// ErrorRate is Errors/Events; BurnRate is ErrorRate over the error
	// budget (1 − target).
	ErrorRate float64
	BurnRate  float64
}

// SLOObjective is one objective's evaluation.
type SLOObjective struct {
	Name        string
	Description string
	// Target is the required good-event fraction.
	Target float64
	// Events and Errors cover the whole run; GoodFraction is the overall
	// compliance and ErrorBudgetUsed the overall burn (above 1 the
	// objective is out of budget).
	Events          int64
	Errors          int64
	GoodFraction    float64
	ErrorBudgetUsed float64
	// BurnThreshold and Windows document the alert rule: Alerting is set
	// when the burn rate meets the threshold in every window at once.
	BurnThreshold float64
	Windows       []SLOWindowBurn
	Alerting      bool
}

// SLOReport is the job's service-level-objective evaluation at the end
// of the run, on the simulated clock.
type SLOReport struct {
	// HorizonMinutes is the simulated instant the alert windows end at:
	// the latest event time any objective saw.
	HorizonMinutes float64
	Objectives     []SLOObjective
	// Alerting reports whether any objective's burn-rate alert fires.
	Alerting bool
}

// coreOptions resolves the job's workload and device and builds the
// core options every execution path shares — the direct Tune below and
// the cluster dispatcher, which supplies its own store, checkpointing,
// and observability on top.
func (job Job) coreOptions() (core.Options, error) {
	if job.Workload == "" {
		return core.Options{}, errors.New("edgetune: job needs a workload (IC, SR, NLP, or OD)")
	}
	w, err := workload.New(job.Workload, job.Seed^0x9e3779b9)
	if err != nil {
		return core.Options{}, err
	}
	dev := device.I7()
	switch {
	case job.CustomDevice != nil:
		dev, err = job.CustomDevice.toDevice()
		if err != nil {
			return core.Options{}, err
		}
	case job.Device != "":
		dev, err = device.ByName(job.Device)
		if err != nil {
			return core.Options{}, err
		}
	}
	var as *autoscale.Config
	if job.Autoscale {
		as = &autoscale.Config{Min: job.AutoscaleMin, Max: job.AutoscaleMax}
	}
	return core.Options{
		Workload:       w,
		Device:         dev,
		Autoscale:      as,
		BudgetKind:     string(job.Budget),
		Metric:         core.Metric(job.Metric),
		ModelAlgo:      string(job.ModelAlgorithm),
		InferAlgo:      string(job.InferenceAlgorithm),
		SystemParams:   true,
		InferenceAware: !job.WithoutInference,
		StopAtTarget:   job.StopAtTarget,
		InitialConfigs: job.Configs,
		Rungs:          job.Rungs,
		MaxBrackets:    job.Brackets,
		InferTrials:    job.InferenceTrials,
		Seed:           job.Seed,
		Fault:          job.Faults.toInternal(),
		MaxAttempts:    job.MaxTrialAttempts,
		Checkpoint:     job.Checkpoint,
		Tenant:         job.Tenant,
		Profile:        job.Profile,
	}, nil
}

// profileRuns is how many operations of each stage a -profile job's
// alloc probes average over.
const profileRuns = 8

// probe measures the -profile stages of the internal/hotloop table and
// publishes them as gauges on reg, the job's registry (nil, and free,
// unless job.Profile). It runs before the job does, so the gauges are
// in the job's final metrics snapshot and the probes' GOMAXPROCS pin
// never stalls the job's own helpers.
func (job Job) probe(reg *obs.Registry) ([]ProfileProbe, error) {
	if !job.Profile {
		return nil, nil
	}
	probes, err := hotloop.Measure(profileRuns, hotloop.JobStages()...)
	if err != nil {
		return nil, fmt.Errorf("edgetune: profile: %w", err)
	}
	out := make([]ProfileProbe, len(probes))
	for i, p := range probes {
		p.Publish(reg)
		out[i] = ProfileProbe(p)
	}
	return out, nil
}

// Tune runs a tuning job to completion.
func Tune(ctx context.Context, job Job) (*Report, error) {
	if job.IncidentsDir != "" {
		job.Flight = true
	}
	opts, err := job.coreOptions()
	if err != nil {
		return nil, err
	}

	var tracer *obs.Tracer
	if job.TracePath != "" || job.TraceChromePath != "" || job.DebugAddr != "" || job.Flight {
		tracer = obs.NewTracer()
	}
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()

	var fr *flight.Recorder
	if job.Flight {
		fr = flight.New(flight.DefaultSlots)
		// Span completions feed the ring as they end; names and tracks
		// are pre-existing strings and small ints, so the hook keeps
		// Record's zero-allocation contract.
		tracer.SetSpanObserver(func(name string, track int, start, dur time.Duration) {
			fr.Record(start, flight.KindSpan, name, "", int64(track), int64(dur))
		})
	}

	var dur *store.Durable
	if job.StorePath != "" {
		var sfs store.FS = store.OSFS{}
		if job.Faults.anyDisk() {
			inj, ierr := fault.NewInjector(job.Faults.toInternal(), job.Seed, counters.NewResilienceOn(reg))
			if ierr != nil {
				return nil, ierr
			}
			sfs = fault.NewFS(sfs, inj)
		}
		dur, err = store.OpenDurable(store.DurableOptions{
			SnapshotPath:     job.StorePath,
			SnapshotEvery:    job.StoreSnapshotEvery,
			FS:               sfs,
			Metrics:          reg,
			SLO:              ev,
			Trace:            tracer,
			KillAfterAppends: job.StoreKillAfterAppends,
			Flight:           fr,
		})
		if err != nil {
			return nil, fmt.Errorf("edgetune: open durable store: %w", err)
		}
		defer dur.Close()
		opts.Store = dur.Store()
	}
	if job.DebugAddr != "" {
		handlers := debugHandlers(ev, tracer)
		if fr != nil {
			handlers["/flight"] = flight.Handler(fr)
		}
		dbg, derr := obs.StartDebugServerOpts(job.DebugAddr, obs.DebugOptions{
			Registry: reg,
			Handlers: handlers,
		})
		if derr != nil {
			return nil, fmt.Errorf("edgetune: debug server: %w", derr)
		}
		defer dbg.Close()
	}

	opts.Trace = tracer
	opts.Metrics = reg
	opts.SLO = ev
	opts.Flight = fr

	probes, err := job.probe(reg)
	if err != nil {
		return nil, err
	}
	var res core.Result
	if job.Hierarchical {
		res, err = core.TuneHierarchical(ctx, opts)
	} else {
		res, err = core.Tune(ctx, opts)
	}
	if err != nil {
		return nil, err
	}

	if dur != nil {
		// Close compacts the WAL into a final snapshot; the deferred
		// second Close is an idempotent no-op.
		if err := dur.Close(); err != nil {
			return nil, fmt.Errorf("edgetune: persist store: %w", err)
		}
	}
	if job.TracePath != "" {
		if err := tracer.SaveJSONL(job.TracePath); err != nil {
			return nil, fmt.Errorf("edgetune: write trace: %w", err)
		}
	}
	if job.TraceChromePath != "" {
		if err := tracer.SaveChrome(job.TraceChromePath); err != nil {
			return nil, fmt.Errorf("edgetune: write chrome trace: %w", err)
		}
	}
	rep := buildReport(res)
	rep.Profile = probes
	if dur != nil {
		sr := dur.Recovery()
		rep.StoreRecovery = &sr
	}
	if job.IncidentsDir != "" && len(res.Incidents) > 0 {
		paths, werr := flight.WriteDossiers(job.IncidentsDir, "", res.Incidents)
		if werr != nil {
			return nil, fmt.Errorf("edgetune: write incident dossiers: %w", werr)
		}
		for i := range rep.Incidents {
			rep.Incidents[i].Path = paths[i]
		}
	}
	return rep, nil
}

func buildReport(res core.Result) *Report {
	r := &Report{
		Workload:       res.Workload,
		Device:         res.Device,
		Metric:         Metric(res.Metric),
		BestConfig:     map[string]float64(res.BestConfig.Clone()),
		BestAccuracy:   res.BestAccuracy,
		MaxAccuracy:    res.MaxAccuracy,
		ReachedTarget:  res.ReachedTarget,
		TuningMinutes:  res.TuningDuration.Minutes(),
		TuningEnergyKJ: res.TuningEnergyKJ,
		TrialsRun:      res.TrialsRun,
		CacheHits:      res.CacheHits,
		CacheMisses:    res.CacheMisses,

		RecommendationDegraded: res.RecommendationDegraded,
		Resilience:             res.Resilience,
		Metrics:                res.Metrics,
		SLO:                    buildSLOReport(res.SLO),
	}
	for _, d := range res.Incidents {
		r.Incidents = append(r.Incidents, summariseIncident(d))
	}
	if a := res.Autoscale; a != nil {
		r.Autoscale = &AutoscaleReport{
			Ticks:          a.Ticks,
			Decisions:      a.Decisions,
			ScaleUps:       a.ScaleUps,
			ScaleDowns:     a.ScaleDowns,
			DegradeSteps:   a.DegradeSteps,
			RecoverSteps:   a.RecoverSteps,
			DeepestMode:    a.DeepestMode.String(),
			FinalMode:      a.FinalMode.String(),
			FinalReplicas:  a.FinalReplicas,
			WarmupMinutes:  a.WarmupTime.Minutes(),
			WarmupEnergyKJ: a.WarmupEnergyJ / 1000,
			Digest:         fmt.Sprintf("%016x", a.Digest),
		}
	}
	if res.Recommendation.Signature != "" {
		r.Recommendation = recommendationOf(res.Recommendation)
	}
	return r
}

// summariseIncident is a dossier's line in a report; the dossier itself
// is the artefact under IncidentsDir.
func summariseIncident(d flight.Dossier) Incident {
	return Incident{
		Trigger:   d.Trigger.Kind,
		Detail:    d.Trigger.Detail,
		AtMinutes: d.Trigger.At.Minutes(),
		Seq:       d.Trigger.Seq,
		Events:    len(d.Events),
		Truncated: d.Truncated,
		Digest:    d.Digest,
	}
}

// recommendationOf reads an inference-tuning result as the deployment
// recommendation it is.
func recommendationOf(e store.Entry) InferenceRecommendation {
	return InferenceRecommendation{
		Device:           e.Device,
		BatchSize:        int(e.Config[workload.ParamInferBatch]),
		Cores:            int(e.Config[workload.ParamCores]),
		FrequencyGHz:     e.Config[workload.ParamFreq],
		Throughput:       e.Throughput,
		EnergyPerSampleJ: e.EnergyPerSampleJ,
		LatencySeconds:   e.LatencySeconds,
	}
}

func buildSLOReport(s slo.Snapshot) SLOReport {
	r := SLOReport{HorizonMinutes: s.Horizon.Minutes(), Alerting: s.Alerting()}
	for _, o := range s.Objectives {
		obj := SLOObjective{
			Name:            o.Name,
			Description:     o.Description,
			Target:          o.Target,
			Events:          o.Events,
			Errors:          o.Errors,
			GoodFraction:    o.GoodFraction,
			ErrorBudgetUsed: o.ErrorBudgetUsed,
			BurnThreshold:   o.BurnThreshold,
			Alerting:        o.Alerting,
		}
		for _, w := range o.Windows {
			obj.Windows = append(obj.Windows, SLOWindowBurn{
				WindowMinutes: w.Window.Minutes(),
				Events:        w.Events,
				Errors:        w.Errors,
				ErrorRate:     w.ErrorRate,
				BurnRate:      w.BurnRate,
			})
		}
		r.Objectives = append(r.Objectives, obj)
	}
	return r
}

// debugHandlers is what a debug server mounts beside the registry's
// own endpoints, single-node and cluster alike: the SLO evaluation and
// a live analysis of the tracer's spans.
func debugHandlers(ev *slo.Evaluator, tracer *obs.Tracer) map[string]http.Handler {
	return map[string]http.Handler{
		"/slo":     slo.Handler(ev),
		"/analyze": analyzeHandler(tracer),
	}
}

// analyzeHandler serves a live trace analysis: the tracer's current
// spans parsed and analysed on each request (?format=json for the raw
// report).
func analyzeHandler(tr *obs.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		trace, err := analyze.ParseJSONL(&buf)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		rep := analyze.Analyze(trace)
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
	})
}

// configFromMap converts a public map into an internal search.Config.
func configFromMap(m map[string]float64) search.Config {
	cfg := make(search.Config, len(m))
	for k, v := range m {
		cfg[k] = v
	}
	return cfg
}
