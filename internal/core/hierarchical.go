package core

import (
	"context"
	"fmt"
	"math"

	"edgetune/internal/budget"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// TuneHierarchical implements the two-tier alternative of §4.1 /
// Figure 9: stage one tunes the hyperparameters with the system
// parameters fixed at their defaults; stage two sweeps the system
// parameters only for the stage-one winner. It is the comparison point
// for EdgeTune's onefold approach — it cannot exploit the coupling
// between hyper and system parameters, and its stage-two sweep re-runs
// full-budget trials serially.
func TuneHierarchical(ctx context.Context, opts Options) (Result, error) {
	// Stage 1: hyperparameters only.
	stage1 := opts
	stage1.SystemParams = false
	res, err := Tune(ctx, stage1)
	if err != nil {
		return res, fmt.Errorf("core: hierarchical stage 1: %w", err)
	}

	// Stage 2: sweep the training system parameter (GPU count) for the
	// winning hyperparameters at full budget.
	if err := opts.normalise(); err != nil {
		return res, err
	}
	runner, err := trial.NewRunner(opts.Workload, perfmodel.TitanRTX(), opts.Seed+1)
	if err != nil {
		return res, err
	}
	strat, err := budget.New(opts.BudgetKind)
	if err != nil {
		return res, err
	}
	alloc := saturatedAlloc(strat) // full budget

	obj := Objective{Metric: opts.Metric, TargetAccuracy: opts.Workload.TargetAccuracy()}
	bestScore := math.Inf(1)
	var bestCfg search.Config
	for gpus := 1; gpus <= runner.GPUProfile().MaxGPUs; gpus++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		cfg := res.BestConfig.Clone()
		cfg[workload.ParamGPUs] = float64(gpus)
		tr, err := runner.Run(ctx, trial.Request{Config: cfg, Alloc: alloc})
		if err != nil {
			return res, fmt.Errorf("core: hierarchical stage 2 (gpus=%d): %w", gpus, err)
		}
		res.TrialsRun++
		res.TuningDuration += tr.Cost.Duration
		res.TuningEnergyKJ += tr.Cost.EnergyJ / 1000
		score := obj.TrainOnlyScore(tr.Cost, tr.Accuracy)
		if score < bestScore {
			bestScore = score
			bestCfg = cfg
			res.BestAccuracy = tr.Accuracy
		}
	}
	if bestCfg != nil {
		res.BestConfig = bestCfg
	}
	return res, nil
}
