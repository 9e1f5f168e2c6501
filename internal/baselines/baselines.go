// Package baselines implements the systems the paper compares EdgeTune
// against:
//
//   - Tune (§5.1): Ray Tune configured with the same BOHB search — pure
//     hyperparameter tuning with an epoch budget, accuracy-only
//     objective, fixed system parameters, and no inference awareness.
//   - HyperPower (§5.5, Stamoulis et al.): power-constrained Bayesian
//     optimisation with early termination of power-violating trials,
//     tuning-phase power in the objective, and no inference objective.
//
// Both reuse EdgeTune's substrates (trial runner, search, budgets) so
// comparisons isolate the system design rather than implementation
// differences.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"edgetune/internal/budget"
	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// RunTune executes the Tune baseline: EdgeTune's loop with the
// inference server disabled, system parameters fixed, the classic
// epoch-based budget, and the accuracy-only objective. The returned
// result carries a post-hoc inference evaluation at the device's
// default configuration (single-sample, all cores, max frequency) —
// what a user deploying Tune's output without further work would get.
func RunTune(ctx context.Context, opts core.Options) (core.Result, error) {
	opts.SystemParams = false
	opts.InferenceAware = false
	opts.AccuracyOnly = true
	opts.BudgetKind = budget.KindEpochs
	// Tune fixes the same system parameters for every trial (§2.3.4);
	// a user on the paper's multi-GPU testbed would reach for half the
	// node, which the motivation figures show is rarely optimal.
	if opts.FixedGPUs == 0 {
		opts.FixedGPUs = 4
	}
	res, err := core.Tune(ctx, opts)
	if err != nil {
		return res, fmt.Errorf("baselines: tune: %w", err)
	}
	rec, err := DefaultInference(opts.Workload, res.BestConfig, opts.Device)
	if err != nil {
		return res, err
	}
	res.Recommendation = rec
	return res, nil
}

// DefaultInference evaluates a configuration's inference performance at
// the device's default system configuration, tagging the entry as the
// untuned deployment.
func DefaultInference(w *workload.Workload, cfg search.Config, dev device.Device) (store.Entry, error) {
	if w == nil {
		return store.Entry{}, errors.New("baselines: nil workload")
	}
	if dev.Profile.Name == "" {
		dev = device.I7()
	}
	flops, params, err := w.PaperCost(cfg)
	if err != nil {
		return store.Entry{}, err
	}
	return core.DefaultEntry(w.Signature(cfg)+"/default", dev, flops, params)
}

// EvaluateInference scores a model configuration at an explicit
// inference configuration — used by the Figure 17 comparison, which
// deploys HyperPower's winner with EdgeTune's recommended inference
// parameters ("to make the inference comparison fair, we use the same
// parameters outputted by our approach in both cases").
func EvaluateInference(w *workload.Workload, modelCfg search.Config, infCfg search.Config, dev device.Device) (perfmodel.InferResult, error) {
	flops, params, err := w.PaperCost(modelCfg)
	if err != nil {
		return perfmodel.InferResult{}, err
	}
	return dev.Estimate(perfmodel.InferSpec{
		FLOPsPerSample: flops,
		Params:         params,
		BatchSize:      int(infCfg[workload.ParamInferBatch]),
		Cores:          int(infCfg[workload.ParamCores]),
		FreqGHz:        infCfg[workload.ParamFreq],
	})
}

// HyperPowerOptions configures the HyperPower baseline.
type HyperPowerOptions struct {
	// Workload is the model/dataset pair. Required.
	Workload *workload.Workload
	// GPU is the training platform (defaults to Titan RTX).
	GPU perfmodel.GPUProfile
	// PowerCapW is the training power constraint; trials predicted to
	// exceed it are terminated before full evaluation. Zero selects
	// 220 W (a single-GPU-class cap).
	PowerCapW float64
	// Configs is the number of configurations explored (default 8).
	Configs int
	// Rungs is the number of early-termination rounds (default 3 — more
	// aggressive than EdgeTune, matching HyperPower's cheaper tuning).
	Rungs int
	// Eta is the halving factor (default 3, aggressive termination).
	Eta int
	// Seed drives determinism.
	Seed uint64
}

func (o *HyperPowerOptions) normalise() error {
	if o.Workload == nil {
		return errors.New("baselines: hyperpower needs a workload")
	}
	if o.GPU.FlopsPerSec == 0 {
		o.GPU = perfmodel.TitanRTX()
	}
	if o.PowerCapW == 0 {
		o.PowerCapW = 220
	}
	if o.PowerCapW < 0 {
		return fmt.Errorf("baselines: power cap %v must be positive", o.PowerCapW)
	}
	if o.Configs == 0 {
		o.Configs = 8
	}
	if o.Rungs == 0 {
		o.Rungs = 3
	}
	if o.Eta == 0 {
		o.Eta = 3
	}
	if o.Eta < 2 {
		return fmt.Errorf("baselines: eta %d must be >= 2", o.Eta)
	}
	return nil
}

// HyperPowerResult reports the baseline's outcome.
type HyperPowerResult struct {
	// BestConfig is the winning hyperparameter configuration.
	BestConfig search.Config
	// BestAccuracy is its accuracy at the final budget.
	BestAccuracy float64
	// TuningCost accounts the tuning phase (duration and energy).
	TuningCost perfmodel.Cost
	// TrialsRun counts completed trials; Terminated counts trials
	// killed by the power predictor.
	TrialsRun  int
	Terminated int
}

// RunHyperPower executes the HyperPower baseline: TPE-driven search over
// hyperparameters with a power cap. Before each trial, the analytic
// power predictor (standing in for HyperPower's learned power model)
// screens the configuration; violating trials are terminated at a small
// screening cost.
func RunHyperPower(ctx context.Context, opts HyperPowerOptions) (HyperPowerResult, error) {
	var res HyperPowerResult
	if err := opts.normalise(); err != nil {
		return res, err
	}
	w := opts.Workload
	space, err := w.TrainSpace(false)
	if err != nil {
		return res, err
	}
	sampler := search.NewTPESampler(space, opts.Seed, search.TPEOptions{})
	runner, err := trial.NewRunner(w, opts.GPU, opts.Seed)
	if err != nil {
		return res, err
	}
	// HyperPower's hallmark is aggressive early termination at objective
	// evaluation: screening runs are cut off after a fraction of the
	// first epoch, and only survivors earn real training. This schedule
	// is what makes its tuning phase cheaper than EdgeTune's (Figure 17).
	schedule := []budget.Allocation{
		{Epochs: 1, DataFraction: 0.2},
		{Epochs: 1, DataFraction: 1},
		{Epochs: 3, DataFraction: 1},
	}

	type member struct {
		cfg   search.Config
		score float64
	}
	population := make([]member, 0, opts.Configs)
	for i := 0; i < opts.Configs; i++ {
		population = append(population, member{cfg: sampler.Sample()})
	}
	bestScore := math.Inf(1)

	if opts.Rungs > len(schedule) {
		opts.Rungs = len(schedule)
	}
	for rung := 0; rung < opts.Rungs && len(population) > 0; rung++ {
		alloc := schedule[rung]
		for i := range population {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			cfg := population[i].cfg
			power, err := predictTrainingPower(w, cfg, alloc, opts.GPU)
			if err != nil {
				return res, err
			}
			if power > opts.PowerCapW {
				// Early termination: charge only the screening overhead
				// (one screening step of GPU idle draw).
				population[i].score = math.Inf(1)
				res.Terminated++
				res.TuningCost = res.TuningCost.Add(perfmodel.Cost{
					Duration: 0,
					EnergyJ:  opts.GPU.IdlePowerW, // ~1 s of host idle
				})
				continue
			}
			tr, err := runner.Run(ctx, trial.Request{Config: cfg, Alloc: alloc})
			if err != nil {
				return res, err
			}
			res.TrialsRun++
			res.TuningCost = res.TuningCost.Add(tr.Cost)
			score := 1 - tr.Accuracy
			population[i].score = score
			sampler.Observe(search.Observation{Config: cfg, Score: score, Budget: alloc.Cost()})
			if score < bestScore {
				bestScore = score
				res.BestConfig = cfg.Clone()
				res.BestAccuracy = tr.Accuracy
			}
		}
		sort.Slice(population, func(a, b int) bool { return population[a].score < population[b].score })
		keep := len(population) / opts.Eta
		if keep < 1 {
			keep = 1
		}
		population = population[:keep]
	}
	if res.BestConfig == nil {
		return res, errors.New("baselines: hyperpower terminated every trial; raise the power cap")
	}
	return res, nil
}

// predictTrainingPower estimates a configuration's training power draw
// from the analytic model (HyperPower's power predictor analogue).
func predictTrainingPower(w *workload.Workload, cfg search.Config, alloc budget.Allocation, gpu perfmodel.GPUProfile) (float64, error) {
	flops, params, err := w.PaperCost(cfg)
	if err != nil {
		return 0, err
	}
	samples := float64(w.Split.Train.Len()) * w.Split.Train.Meta.Scale * alloc.DataFraction
	cost, err := perfmodel.TrainingCost(perfmodel.TrainSpec{
		FLOPsPerSample: flops,
		Params:         params,
		Samples:        samples,
		Epochs:         alloc.Epochs,
		BatchSize:      int(cfg[workload.ParamTrainBatch]),
		GPUs:           1,
	}, gpu)
	if err != nil {
		return 0, err
	}
	sec := cost.Duration.Seconds()
	if sec <= 0 {
		return 0, nil
	}
	return cost.EnergyJ / sec, nil
}
