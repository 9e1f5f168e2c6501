package trial

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"edgetune/internal/budget"
	"edgetune/internal/dataset"
	"edgetune/internal/fault"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/workload"
)

func icRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(workload.MustNew("IC", 1), perfmodel.GPUProfile{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func icConfig() search.Config {
	return search.Config{
		workload.ParamLayers:     18,
		workload.ParamTrainBatch: 128,
		workload.ParamGPUs:       1,
	}
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(nil, perfmodel.GPUProfile{}, 1); err == nil {
		t.Error("nil workload accepted")
	}
	r := icRunner(t)
	if r.GPUProfile().Name != "titan-rtx" {
		t.Error("zero GPU profile did not default to Titan RTX")
	}
}

func TestRunProducesPlausibleResult(t *testing.T) {
	r := icRunner(t)
	res, err := r.Run(context.Background(), Request{
		Config: icConfig(),
		Alloc:  budget.Allocation{Epochs: 4, DataFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy <= 0.15 || res.Accuracy > 1 {
		t.Errorf("accuracy = %v, want learnable (> chance 0.1)", res.Accuracy)
	}
	if res.Cost.Duration <= 0 || res.Cost.EnergyJ <= 0 {
		t.Errorf("cost = %+v, want positive", res.Cost)
	}
	if res.Steps <= 0 {
		t.Error("no optimiser steps recorded")
	}
}

func TestRunDeterministic(t *testing.T) {
	req := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.3}}
	a, err := icRunner(t).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := icRunner(t).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.Cost != b.Cost {
		t.Errorf("same seed+request differ: %+v vs %+v", a, b)
	}
}

// TestBiggerBudgetHigherAccuracy: the learning curve must respond to the
// budget — this is the property every budget strategy exploits.
func TestBiggerBudgetHigherAccuracy(t *testing.T) {
	r := icRunner(t)
	small, err := r.Run(context.Background(), Request{
		Config: icConfig(),
		Alloc:  budget.Allocation{Epochs: 1, DataFraction: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	large, err := r.Run(context.Background(), Request{
		Config: icConfig(),
		Alloc:  budget.Allocation{Epochs: 10, DataFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if large.Accuracy <= small.Accuracy {
		t.Errorf("10 epochs on full data (%.3f) not above 1 epoch on 10%% (%.3f)",
			large.Accuracy, small.Accuracy)
	}
	if large.Cost.Duration <= small.Cost.Duration {
		t.Error("bigger budget must cost more simulated time")
	}
}

// TestFullBudgetReachesTarget: a well-chosen configuration (small batch,
// the regime the tuner discovers) trained at full budget must clear the
// paper's 80% accuracy goal.
func TestFullBudgetReachesTarget(t *testing.T) {
	r := icRunner(t)
	cfg := icConfig()
	cfg[workload.ParamTrainBatch] = 32
	res, err := r.Run(context.Background(), Request{
		Config: cfg,
		Alloc:  budget.Allocation{Epochs: 10, DataFraction: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tgt := r.Workload().TargetAccuracy(); res.Accuracy < tgt {
		t.Errorf("full-budget accuracy %.3f below target %.2f", res.Accuracy, tgt)
	}
}

func TestMoreGPUsChangesCostNotAccuracy(t *testing.T) {
	r := icRunner(t)
	base := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.3}}
	multi := Request{Config: icConfig().Clone(), Alloc: base.Alloc}
	multi.Config[workload.ParamGPUs] = 8
	a, err := r.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), multi)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost == b.Cost {
		t.Error("GPU count did not change the simulated cost")
	}
}

func TestRunValidation(t *testing.T) {
	r := icRunner(t)
	ctx := context.Background()
	tests := []struct {
		name string
		req  Request
	}{
		{name: "zero epochs", req: Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 0, DataFraction: 1}}},
		{name: "bad fraction", req: Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 1, DataFraction: 0}}},
		{name: "missing batch", req: Request{Config: search.Config{workload.ParamLayers: 18}, Alloc: budget.Allocation{Epochs: 1, DataFraction: 1}}},
		{name: "bad layers", req: Request{Config: search.Config{workload.ParamLayers: 19, workload.ParamTrainBatch: 64}, Alloc: budget.Allocation{Epochs: 1, DataFraction: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := r.Run(ctx, tt.req); err == nil {
				t.Error("invalid request accepted")
			}
		})
	}
}

func TestRunHonoursCancelledContext(t *testing.T) {
	r := icRunner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 1, DataFraction: 0.1}}); err == nil {
		t.Error("cancelled context accepted")
	}
}

// countdownCtx reports cancellation after its Err method has been
// polled n times — a deterministic stand-in for "the bracket was
// cancelled while this trial was mid-training".
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunCancelledMidTraining: cancellation arriving after the trial
// has started must abort it between mini-batches, not after the full
// SGD run. The countdown survives the entry poll, so only the
// per-mini-batch Check can observe the cancellation.
func TestRunCancelledMidTraining(t *testing.T) {
	r := icRunner(t)
	req := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 8, DataFraction: 1}}

	_, err := r.Run(newCountdownCtx(2), req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-training cancellation not honoured: err = %v", err)
	}
}

func TestRunRetryAttemptReseeds(t *testing.T) {
	r := icRunner(t)
	req := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.3}}
	a, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Attempt = 1
	b, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy == b.Accuracy {
		t.Error("retry attempt did not reseed training")
	}
}

func setInjector(t *testing.T, r *Runner, cfg fault.Config) {
	t.Helper()
	in, err := fault.NewInjector(cfg, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetFaultInjector(in)
}

func trialReq() Request {
	return Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.3}}
}

func TestRunInjectedCrashChargesPartialCost(t *testing.T) {
	r := icRunner(t)
	setInjector(t, r, fault.Config{TrialCrash: 1})
	res, err := r.Run(context.Background(), trialReq())
	if fault.ClassOf(err) != fault.TrialCrash {
		t.Fatalf("err = %v, want injected crash", err)
	}
	if res.Cost.Duration <= 0 || res.Cost.EnergyJ <= 0 {
		t.Error("crashed attempt charged no cost")
	}
	clean, err := icRunner(t).Run(context.Background(), trialReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Duration >= clean.Cost.Duration {
		t.Errorf("crashed cost %v not below full cost %v", res.Cost.Duration, clean.Cost.Duration)
	}
}

func TestRunInjectedNaNChargesFullCost(t *testing.T) {
	r := icRunner(t)
	setInjector(t, r, fault.Config{TrialNaN: 1})
	res, err := r.Run(context.Background(), trialReq())
	if fault.ClassOf(err) != fault.TrialNaN {
		t.Fatalf("err = %v, want injected NaN divergence", err)
	}
	clean, cerr := icRunner(t).Run(context.Background(), trialReq())
	if cerr != nil {
		t.Fatal(cerr)
	}
	if res.Cost != clean.Cost {
		t.Errorf("diverged run cost %+v, want full cost %+v", res.Cost, clean.Cost)
	}
}

func TestRunInjectedStragglerInflatesCost(t *testing.T) {
	r := icRunner(t)
	setInjector(t, r, fault.Config{Straggler: 1, StragglerFactor: 3})
	res, err := r.Run(context.Background(), trialReq())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Straggled {
		t.Fatal("p=1 straggler did not fire")
	}
	clean, err := icRunner(t).Run(context.Background(), trialReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != clean.Accuracy {
		t.Error("straggler changed the training outcome")
	}
	if res.Cost.Duration <= clean.Cost.Duration || res.Cost.Duration > 3*clean.Cost.Duration+time.Microsecond {
		t.Errorf("straggler cost %v vs clean %v outside (1,3]x", res.Cost.Duration, clean.Cost.Duration)
	}
}

func TestAllWorkloadsRunnable(t *testing.T) {
	configs := map[string]search.Config{
		"IC":  {workload.ParamLayers: 34, workload.ParamTrainBatch: 64},
		"SR":  {workload.ParamEmbedDim: 64, workload.ParamTrainBatch: 64},
		"NLP": {workload.ParamStride: 2, workload.ParamTrainBatch: 64},
		"OD":  {workload.ParamDropout: 0.2, workload.ParamTrainBatch: 64},
	}
	for _, id := range workload.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := NewRunner(workload.MustNew(id, 1), perfmodel.GPUProfile{}, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(context.Background(), Request{
				Config: configs[id],
				Alloc:  budget.Allocation{Epochs: 6, DataFraction: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			chance := 1 / float64(r.Workload().Split.Test.Classes)
			if res.Accuracy < 1.5*chance {
				t.Errorf("accuracy %.3f below 1.5x chance", res.Accuracy)
			}
		})
	}
}

// TestTrainingNeverWritesThroughData: a trial's subset is a view of the
// workload's dataset, and a trial that re-featurises reads the tokens of
// that dataset and writes the features to its own scratch, so a trial
// must leave the workload's features, test set and tokens untouched.
func TestTrainingNeverWritesThroughData(t *testing.T) {
	for _, tt := range []struct {
		id  string
		cfg search.Config
	}{
		{"IC", icConfig()},
		{"NLP", search.Config{workload.ParamStride: 3, workload.ParamTrainBatch: 64}},
	} {
		w := workload.MustNew(tt.id, 1)
		r, err := NewRunner(w, perfmodel.GPUProfile{}, 7)
		if err != nil {
			t.Fatal(err)
		}
		var tokens []uint8
		for _, seq := range w.Split.Train.Tokens {
			tokens = append(tokens, seq...)
		}
		var features, before [][]float64 // a token split has none
		for _, d := range []*dataset.Dataset{w.Split.Train, w.Split.Test} {
			if d.X != nil {
				features, before = append(features, d.X.Data), append(before, append([]float64(nil), d.X.Data...))
			}
		}
		if _, err := r.Run(context.Background(), Request{Config: tt.cfg, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.4}}); err != nil {
			t.Fatal(err)
		}
		for i, now := range features {
			for j, v := range now {
				if v != before[i][j] {
					t.Fatalf("%s: the trial wrote to dataset %d at %d", tt.id, i, j)
				}
			}
		}
		for i, seq := range w.Split.Train.Tokens {
			for j, tok := range seq {
				if tok != tokens[i*len(seq)+j] {
					t.Fatalf("%s: the trial wrote to token %d of sequence %d", tt.id, j, i)
				}
			}
		}
	}
}

// TestProjectedCostMatchesSubset: every bill — a crashed attempt's and
// a finished trial's — is computed from the subset's length alone and
// must equal the cost of the real, featurised subset the training saw,
// on the workload that re-featurises too.
func TestProjectedCostMatchesSubset(t *testing.T) {
	cfg := search.Config{workload.ParamStride: 5, workload.ParamTrainBatch: 64, workload.ParamGPUs: 2}
	r, err := NewRunner(workload.MustNew("NLP", 1), perfmodel.GPUProfile{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.013, 0.5, 1} {
		req := Request{Config: cfg, Alloc: budget.Allocation{Epochs: 1, DataFraction: frac}}
		res, err := r.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		flops, params, err := r.workload.PaperCost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sub, _, err := r.workload.DataIn(nil, cfg, frac)
		if err != nil {
			t.Fatal(err)
		}
		want, err := perfmodel.TrainingCost(perfmodel.TrainSpec{
			FLOPsPerSample: flops, Params: params, Samples: sub.PaperSamples(),
			Epochs: 1, BatchSize: 64, GPUs: 2,
		}, r.gpu)
		if err != nil {
			t.Fatal(err)
		}
		got, k, err := r.projectedCost(flops, params, req, 64, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || res.Cost != want || k != sub.Len() {
			t.Errorf("fraction %v: projected cost %+v over %d samples, trial charged %+v, the subset of %d costs %+v",
				frac, got, k, res.Cost, sub.Len(), want)
		}
	}
}

// TestTimeBudgetIntegration wires the paper's third budget type end to
// end: a TimeStrategy whose epoch length is what a one-epoch full-data
// trial is charged produces allocations a trial can run.
func TestTimeBudgetIntegration(t *testing.T) {
	w := workload.MustNew("IC", 1)
	cfg := search.Config{
		workload.ParamLayers:     18,
		workload.ParamTrainBatch: 64,
		workload.ParamGPUs:       1,
	}
	r, err := NewRunner(w, perfmodel.GPUProfile{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	one, err := r.Run(context.Background(), Request{Config: cfg, Alloc: budget.Allocation{Epochs: 1, DataFraction: 1}})
	if err != nil {
		t.Fatal(err)
	}
	perEpoch := one.Cost.Duration.Seconds()
	strat, err := budget.NewTime(perEpoch, 10*perEpoch, perEpoch, 10)
	if err != nil {
		t.Fatal(err)
	}
	for it := 1; it <= 4; it++ {
		alloc := strat.At(it)
		res, err := r.Run(context.Background(), Request{Config: cfg, Alloc: alloc})
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		// The trial's charged time must respect the iteration's cap
		// (within one epoch of rounding).
		cap := perEpoch * float64(it+1)
		if res.Cost.Duration.Seconds() > cap {
			t.Errorf("it %d: trial took %.0fs, cap %.0fs", it, res.Cost.Duration.Seconds(), cap)
		}
	}
}
