package baselines

import (
	"context"
	"testing"

	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/search"
	"edgetune/internal/workload"
)

func tuneOptions(id string) core.Options {
	return core.Options{
		Workload:       workload.MustNew(id, 1),
		InitialConfigs: 4,
		Rungs:          4,
		MaxBrackets:    1,
		Seed:           7,
	}
}

func TestRunTune(t *testing.T) {
	res, err := RunTune(context.Background(), tuneOptions("IC"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TrialsRun == 0 {
		t.Fatal("no trials ran")
	}
	// The Tune baseline is inference-unaware: its recommendation is the
	// post-hoc default deployment (single-sample inference).
	if got := res.Recommendation.Config[workload.ParamInferBatch]; got != 1 {
		t.Errorf("default inference batch = %v, want 1", got)
	}
	if res.Recommendation.Throughput <= 0 {
		t.Error("no post-hoc inference evaluation")
	}
	if res.InferTuningDuration != 0 {
		t.Error("Tune baseline charged inference tuning")
	}
	// Tune never tunes system parameters.
	if _, ok := res.BestConfig[workload.ParamGPUs]; ok {
		t.Error("Tune baseline tuned GPUs")
	}
}

func TestDefaultInferenceValidation(t *testing.T) {
	if _, err := DefaultInference(nil, search.Config{}, device.I7()); err == nil {
		t.Error("nil workload accepted")
	}
	w := workload.MustNew("IC", 1)
	if _, err := DefaultInference(w, search.Config{}, device.I7()); err == nil {
		t.Error("config without model param accepted")
	}
	// Zero device defaults to i7.
	e, err := DefaultInference(w, search.Config{workload.ParamLayers: 18}, device.Device{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Device != device.I7().Profile.Name {
		t.Errorf("device = %q, want default i7", e.Device)
	}
}

func TestEvaluateInference(t *testing.T) {
	w := workload.MustNew("IC", 1)
	modelCfg := search.Config{workload.ParamLayers: 34}
	infCfg := search.Config{
		workload.ParamInferBatch: 8,
		workload.ParamCores:      2,
		workload.ParamFreq:       2.0,
	}
	r, err := EvaluateInference(w, modelCfg, infCfg, device.I7())
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
	// Invalid inference config must error.
	bad := infCfg.Clone()
	bad[workload.ParamCores] = 99
	if _, err := EvaluateInference(w, modelCfg, bad, device.I7()); err == nil {
		t.Error("invalid inference config accepted")
	}
}

func TestRunHyperPower(t *testing.T) {
	res, err := RunHyperPower(context.Background(), HyperPowerOptions{
		Workload: workload.MustNew("IC", 1),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestConfig == nil {
		t.Fatal("no winner")
	}
	if res.BestAccuracy <= 0.1 {
		t.Errorf("accuracy %v at chance", res.BestAccuracy)
	}
	if res.TuningCost.Duration <= 0 {
		t.Error("no tuning cost accounted")
	}
	if res.TrialsRun == 0 {
		t.Error("no trials ran")
	}
}

func TestHyperPowerPowerCapTerminates(t *testing.T) {
	// An absurdly low cap must terminate everything and error.
	_, err := RunHyperPower(context.Background(), HyperPowerOptions{
		Workload:  workload.MustNew("IC", 1),
		PowerCapW: 1,
		Seed:      1,
	})
	if err == nil {
		t.Error("1 W cap did not terminate all trials")
	}

	// A moderate cap terminates some but not all.
	res, err := RunHyperPower(context.Background(), HyperPowerOptions{
		Workload:  workload.MustNew("IC", 1),
		PowerCapW: 168,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Terminated == 0 {
		t.Log("note: no trials terminated at 168 W (acceptable but unexpected)")
	}
}

func TestHyperPowerValidation(t *testing.T) {
	if _, err := RunHyperPower(context.Background(), HyperPowerOptions{}); err == nil {
		t.Error("missing workload accepted")
	}
	if _, err := RunHyperPower(context.Background(), HyperPowerOptions{
		Workload:  workload.MustNew("IC", 1),
		PowerCapW: -5,
	}); err == nil {
		t.Error("negative cap accepted")
	}
}

func TestHyperPowerDeterministic(t *testing.T) {
	opts := HyperPowerOptions{Workload: workload.MustNew("IC", 1), Seed: 3}
	a, err := RunHyperPower(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workload = workload.MustNew("IC", 1)
	b, err := RunHyperPower(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestAccuracy != b.BestAccuracy || a.TuningCost != b.TuningCost {
		t.Error("same-seed runs differ")
	}
}

// TestHyperPowerCheaperButWorseInference encodes the Figure 17 shape:
// HyperPower tunes cheaper than EdgeTune, but EdgeTune's winner gives
// better inference performance when both are deployed with EdgeTune's
// recommended inference parameters.
func TestHyperPowerCheaperButWorseInference(t *testing.T) {
	ctx := context.Background()
	// Both systems at their default scale: EdgeTune's three brackets of
	// 8 configurations (~50 trials, Figure 12) against HyperPower's 8
	// configurations with aggressive termination.
	et, err := core.Tune(ctx, core.Options{
		Workload:       workload.MustNew("IC", 1),
		SystemParams:   true,
		InferenceAware: true,
		InferTrials:    12,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := RunHyperPower(ctx, HyperPowerOptions{
		Workload: workload.MustNew("IC", 1),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hp.TuningCost.Duration >= et.TuningDuration {
		t.Errorf("HyperPower tuning %v not cheaper than EdgeTune %v",
			hp.TuningCost.Duration, et.TuningDuration)
	}
	dev := device.I7()
	w := workload.MustNew("IC", 1)
	etInf, err := EvaluateInference(w, et.BestConfig, et.Recommendation.Config, dev)
	if err != nil {
		t.Fatal(err)
	}
	hpInf, err := EvaluateInference(w, hp.BestConfig, et.Recommendation.Config, dev)
	if err != nil {
		t.Fatal(err)
	}
	if etInf.Throughput < hpInf.Throughput {
		t.Errorf("EdgeTune inference throughput %v below HyperPower %v",
			etInf.Throughput, hpInf.Throughput)
	}
}
