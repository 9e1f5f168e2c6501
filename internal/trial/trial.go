// Package trial executes one training trial: it applies a budget
// allocation to the workload's dataset, genuinely trains the model with
// mini-batch SGD, evaluates accuracy on the held-out set, and charges
// simulated runtime and energy through the performance model — the unit
// of work the Model Tuning Server schedules.
package trial

import (
	"context"
	"fmt"
	"time"

	"edgetune/internal/budget"
	"edgetune/internal/dataset"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/workload"
)

// Runner executes trials for one workload on one training platform.
type Runner struct {
	workload *workload.Workload
	gpu      perfmodel.GPUProfile
	seed     uint64
	// lr and momentum are the fixed optimiser settings; the paper tunes
	// batch size, not the learning rate, in its evaluation (§5.1).
	lr, momentum float64
	// injector optionally injects crash/NaN/straggler faults (nil =
	// none).
	injector *fault.Injector

	// plan is the trainings registered ahead of the Run that reads them.
	plan plan
}

// NewRunner creates a trial runner. The GPU profile defaults to the
// paper's Titan RTX testbed when zero-valued.
func NewRunner(w *workload.Workload, gpu perfmodel.GPUProfile, seed uint64) (*Runner, error) {
	if w == nil {
		return nil, fmt.Errorf("trial: nil workload")
	}
	if gpu.FlopsPerSec == 0 {
		gpu = perfmodel.TitanRTX()
	}
	return &Runner{workload: w, gpu: gpu, seed: seed, lr: 0.018, momentum: 0.9}, nil
}

// SetFaultInjector arms the runner with a fault injector; trials then
// crash, diverge, or straggle according to the injector's seeded
// decisions.
func (r *Runner) SetFaultInjector(in *fault.Injector) { r.injector = in }

// Request describes one trial.
type Request struct {
	// Config holds the model hyperparameter, training batch size, and
	// (in onefold mode) the GPU count.
	Config search.Config
	// Alloc is the budget the trial may consume.
	Alloc budget.Allocation
	// Attempt is the zero-based retry attempt. Each attempt re-rolls
	// the fault decisions and reseeds training, so a retried trial is
	// a genuine re-run rather than a deterministic repeat of the
	// failure.
	Attempt int
	// Span, when non-nil, receives epoch and mini-batch child spans on
	// the simulated timeline, placed relative to Start (the attempt's
	// start on the tuner's clock).
	Span *obs.Span
	// Start is the attempt's simulated start time; see Span.
	Start time.Duration
}

// site identifies the request for fault decisions: the same config
// retried at the same budget re-rolls via Attempt, while different
// rungs of the same config are independent sites.
func (req Request) site() string {
	return fmt.Sprintf("%s|e%d|f%g", req.Config.Key(), req.Alloc.Epochs, req.Alloc.DataFraction)
}

// Result reports what a trial achieved and what it cost.
type Result struct {
	// Accuracy on the held-out evaluation set.
	Accuracy float64
	// Cost is the simulated (duration, energy) of the trial at paper
	// scale. On an injected failure, Cost carries what the failed
	// attempt consumed before dying, so the tuner can charge retries
	// to the budget.
	Cost perfmodel.Cost
	// Steps is the number of optimiser steps actually taken.
	Steps int
	// Alloc echoes the budget consumed.
	Alloc budget.Allocation
	// Straggled reports an injected slowdown (the result is valid but
	// its cost is inflated).
	Straggled bool
}

// GPUProfile exposes the runner's training platform.
func (r *Runner) GPUProfile() perfmodel.GPUProfile { return r.gpu }

// Run executes one trial. Training is deterministic given the runner
// seed and the request (config + allocation + attempt). Cancellation is
// honoured between mini-batches, not only at entry, so an abandoned
// bracket stops paying for its in-flight trial promptly.
//
// Run is the trial's sequential part — fault decisions, simulated cost,
// spans — around its pure part, the training itself (train.go). Where
// the training was registered ahead of time (plan.go) Run takes that
// result instead of computing it; which of the two happened is not
// observable in anything Run returns or emits.
func (r *Runner) Run(ctx context.Context, req Request) (Result, error) {
	var res Result
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.Alloc.Epochs < 1 {
		return res, fmt.Errorf("trial: allocation has %d epochs", req.Alloc.Epochs)
	}
	if req.Alloc.DataFraction <= 0 || req.Alloc.DataFraction > 1 {
		return res, fmt.Errorf("trial: allocation fraction %v out of (0,1]", req.Alloc.DataFraction)
	}
	batch := int(req.Config[workload.ParamTrainBatch])
	if batch < 1 {
		return res, fmt.Errorf("trial: config missing %s", workload.ParamTrainBatch)
	}
	gpus := 1
	if g, ok := req.Config[workload.ParamGPUs]; ok {
		gpus = int(g)
	}

	flops, params, err := r.workload.PaperCost(req.Config)
	if err != nil {
		return res, err
	}

	// Injected crash: the trial dies a deterministic fraction of the
	// way through. The dead attempt still charges that fraction of its
	// projected cost (preempted workers bill for the time they held),
	// and the actual SGD run is skipped — or, when it was registered
	// ahead of time, thrown away.
	var site string
	if r.injector != nil { // a nil injector reads no site: build none
		site = req.site()
	}
	if ferr := r.injector.Fail(fault.TrialCrash, site, req.Attempt); ferr != nil {
		r.discard(req)
		cost, _, cerr := r.projectedCost(flops, params, req, batch, gpus)
		if cerr != nil {
			return res, cerr
		}
		frac := 0.05 + 0.9*r.injector.Uniform("crash/"+site, req.Attempt)
		res.Cost = perfmodel.Cost{
			Duration: scaleDuration(cost.Duration, frac),
			EnergyJ:  cost.EnergyJ * frac,
		}
		res.Alloc = req.Alloc
		return res, ferr
	}

	trained := r.training(ctx, req)
	if trained.err != nil {
		return res, trained.err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	cost, subLen, err := r.projectedCost(flops, params, req, batch, gpus)
	if err != nil {
		return res, err
	}

	// Injected NaN divergence: the run consumed its whole budget and
	// produced garbage.
	if ferr := r.injector.Fail(fault.TrialNaN, site, req.Attempt); ferr != nil {
		res.Cost = cost
		res.Alloc = req.Alloc
		res.Steps = trained.steps
		return res, ferr
	}

	// Injected straggler: the result stands but arrives late (and
	// hot), modelling flapping thermal throttling or a slow worker.
	if r.injector.Should(fault.Straggler, site, req.Attempt) {
		factor := r.injector.StragglerFactor(site, req.Attempt)
		cost.Duration = scaleDuration(cost.Duration, factor)
		cost.EnergyJ *= factor
		res.Straggled = true
	}

	res.Accuracy = trained.accuracy
	res.Cost = cost
	res.Steps = trained.steps
	res.Alloc = req.Alloc
	simBatch := min(batch, subLen)
	stepsPerEpoch := (subLen + simBatch - 1) / simBatch
	emitTrainingSpans(req.Span, req.Start, cost.Duration, req.Alloc.Epochs, stepsPerEpoch)
	return res, nil
}

// emitTrainingSpans synthesises the training timeline under an attempt
// span: one "epoch" child per budgeted epoch, each holding its
// "mini-batch" children, with the attempt's (post-straggler) simulated
// duration divided evenly. Only successful attempts emit them — crashed
// and diverged runs end at the attempt span itself. The per-epoch step
// count is capped so pathological allocations cannot flood the tracer:
// beyond 64 steps an epoch's mini-batches coalesce into at most 64
// spans of ceil(steps/64) steps each. Every epoch and mini-batch is a
// function of the attempt, so the timeline is one Epochs call: the
// tracer keeps one run for the attempt, whatever its epochs, and builds
// the spans at export.
func emitTrainingSpans(sp *obs.Span, start, dur time.Duration, epochs, stepsPerEpoch int) {
	if stepsPerEpoch < 1 {
		return
	}
	const maxSteps = 64 // mini-batch spans per epoch beyond this coalesce
	coalesce := (stepsPerEpoch + maxSteps - 1) / maxSteps
	sp.Epochs("epoch", start, start+dur, epochs, "mini-batch", stepsPerEpoch, coalesce)
}

// projectedCost is the full simulated cost of the request and the
// number of samples it trains on. It needs only the subset's length,
// which no featurisation changes, so a crashed attempt is billed its
// share without training and a finished one without asking the training
// what it saw.
func (r *Runner) projectedCost(flops, params float64, req Request, batch, gpus int) (perfmodel.Cost, int, error) {
	train := r.workload.Split().Train
	k, err := dataset.SubsetLen(train.Len(), req.Alloc.DataFraction)
	if err != nil {
		return perfmodel.Cost{}, 0, err
	}
	cost, err := perfmodel.TrainingCost(perfmodel.TrainSpec{
		FLOPsPerSample: flops,
		Params:         params,
		Samples:        float64(k) * train.Meta.Scale,
		Epochs:         req.Alloc.Epochs,
		BatchSize:      batch,
		GPUs:           gpus,
	}, r.gpu)
	return cost, k, err
}

// scaleDuration multiplies a duration by a float factor.
func scaleDuration(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
