package experiments

import (
	"context"
	"fmt"
	"math"

	"edgetune/internal/batching"
	"edgetune/internal/budget"
	"edgetune/internal/core"
	"edgetune/internal/device"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/workload"
)

var fig06Memo memo[Table]

// Fig06Pipelining reproduces Figure 6: the asynchronous overlap of the
// model and inference tuning servers. For each training trial of a
// small onefold run it reports the trial's architecture, the pipelined
// inference-tuning time and what answered the inference request — the
// server's search, or the historical store for an architecture seen
// before — and verifies containment (§3.3).
func Fig06Pipelining() (Table, error) {
	return fig06Memo.do(func() (Table, error) {
		w := workload.MustNew("IC", refWorkloadSeed)
		res, err := core.Tune(context.Background(), core.Options{
			Workload:       w,
			SystemParams:   true,
			InferenceAware: true,
			InitialConfigs: 3,
			Rungs:          3,
			MaxBrackets:    1,
			InferTrials:    16,
			Seed:           11,
		})
		if err != nil {
			return Table{}, err
		}
		t := Table{
			ID:     "Figure 6",
			Title:  "model/inference server pipelining: per-trial overlap",
			Header: []string{"trial", "rung", "architecture", "train [m]", "inference tuning [m]", "source"},
		}
		for i, tr := range res.Trials {
			src := "inference server"
			if tr.InferCached {
				src = "historical store"
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(i + 1),
				fmt.Sprint(tr.Rung + 1),
				w.Signature(tr.Config),
				f2(tr.TrainCost.Duration.Minutes()),
				f2(tr.InferTuning.Duration.Minutes()),
				src,
			})
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("total pipelined inference tuning %.2f m hidden inside %.2f m of training; containment violations: %d",
				res.InferTuningDuration.Minutes(), res.TuningDuration.Minutes(), res.ContainmentViolations),
			fmt.Sprintf("historical-store hits/misses: %d/%d", res.CacheHits, res.CacheMisses))
		return t, nil
	})
}

var fig08Memo memo[Table]

// Fig08Batching reproduces Figure 8: the two multi-sample inference
// scenarios that require batch-size tuning.
func Fig08Batching() (Table, error) {
	return fig08Memo.do(func() (Table, error) {
		dev := device.I7()
		w := workload.MustNew("IC", refWorkloadSeed)
		flops, params, err := w.PaperCost(search.Config{workload.ParamLayers: 18})
		if err != nil {
			return Table{}, err
		}
		lat := func(batch int) (float64, float64, error) {
			r, err := dev.Estimate(perfmodel.InferSpec{
				FLOPsPerSample: flops,
				Params:         params,
				BatchSize:      batch,
				Cores:          dev.Profile.MaxCores,
				FreqGHz:        dev.Profile.MaxFreqGHz,
			})
			if err != nil {
				return 0, 0, err
			}
			return r.BatchLatency.Seconds(), r.EnergyPerSampleJ * float64(batch), nil
		}

		t := Table{
			ID:     "Figure 8",
			Title:  "multi-sample inference scenarios (i7, ResNet18-class model)",
			Header: []string{"scenario", "tuned parameter", "optimal", "mean response [ms]", "energy [J/sample]"},
		}

		srv := batching.Server{SamplesPerQuery: 64, PeriodSec: 5}
		sBest, err := srv.Optimal(lat)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			"server (64 samples @ fixed frequency)",
			"split batch",
			fmt.Sprint(sBest.Split),
			f1(sBest.ResponseSec * 1000),
			f3(sBest.EnergyPerQueryJ / 64),
		})

		ms := batching.MultiStream{LambdaPerSec: 40, Samples: 2000, Seed: 17}
		mBest, err := ms.OptimalBatch(lat, 32)
		if err != nil {
			return Table{}, err
		}
		single, err := ms.Simulate(lat, 1)
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			"multi-stream (Poisson 40/s)",
			"aggregation cap",
			fmt.Sprint(mBest.BatchCap),
			f1(mBest.MeanResponseSec * 1000),
			f3(mBest.EnergyPerSampleJ),
		})
		t.Notes = append(t.Notes,
			fmt.Sprintf("without aggregation the multi-stream mean response is %.1f ms — batching improves it %.1fx",
				single.MeanResponseSec*1000, single.MeanResponseSec/mBest.MeanResponseSec))
		return t, nil
	})
}

var fig09Memo memo[Table]

// Fig09HierVsOnefold reproduces Figure 9's comparison: hierarchical
// two-tier tuning versus EdgeTune's onefold joint tuning.
func Fig09HierVsOnefold() (Table, error) {
	return fig09Memo.do(func() (Table, error) {
		opts := core.Options{
			Workload:       workload.MustNew("IC", refWorkloadSeed),
			SystemParams:   true,
			InferenceAware: true,
			InitialConfigs: 6,
			Rungs:          5,
			MaxBrackets:    1,
			InferTrials:    12,
			Seed:           13,
		}
		onefold, err := core.Tune(context.Background(), opts)
		if err != nil {
			return Table{}, err
		}
		opts.Workload = workload.MustNew("IC", refWorkloadSeed)
		hier, err := core.TuneHierarchical(context.Background(), opts)
		if err != nil {
			return Table{}, err
		}
		t := Table{
			ID:     "Figure 9",
			Title:  "hierarchical vs onefold tuning (IC workload)",
			Header: []string{"approach", "trials", "tuning [m]", "tuning [kJ]", "best accuracy"},
			Rows: [][]string{
				{"onefold (EdgeTune)", fmt.Sprint(onefold.TrialsRun), f1(onefold.TuningDuration.Minutes()), f1(onefold.TuningEnergyKJ), f3(onefold.BestAccuracy)},
				{"hierarchical", fmt.Sprint(hier.TrialsRun), f1(hier.TuningDuration.Minutes()), f1(hier.TuningEnergyKJ), f3(hier.BestAccuracy)},
			},
		}
		t.Notes = append(t.Notes, "onefold tunes hyper and system parameters jointly and avoids the hierarchical stage-2 re-sweep")
		return t, nil
	})
}

var fig10Memo memo[Table]

// Fig10SearchAlgos reproduces Figure 10: nine trials of grid, random,
// and BOHB search on a 2-D objective; BOHB's later trials concentrate
// in the promising region.
func Fig10SearchAlgos() (Table, error) {
	return fig10Memo.do(func() (Table, error) {
		space, err := search.NewSpace(
			search.Param{Name: "x", Kind: search.Float, Min: 0, Max: 1},
			search.Param{Name: "y", Kind: search.Float, Min: 0, Max: 1},
		)
		if err != nil {
			return Table{}, err
		}
		optimum := []float64{0.7, 0.3}
		obj := func(cfg search.Config) float64 {
			u := space.ToUnit(cfg)
			d := 0.0
			for i := range u {
				diff := u[i] - optimum[i]
				d += diff * diff
			}
			return d
		}

		const trials = 9
		run := func(s search.Sampler) (best float64, lastThird float64) {
			best = math.Inf(1)
			var tail float64
			for i := 0; i < trials; i++ {
				cfg := s.Sample()
				v := obj(cfg)
				s.Observe(search.Observation{Config: cfg, Score: v, Budget: 1})
				if v < best {
					best = v
				}
				if i >= trials-3 {
					tail += v
				}
			}
			return best, tail / 3
		}

		grid, err := search.NewGridSampler(space, 3, 100)
		if err != nil {
			return Table{}, err
		}
		rnd := search.NewRandomSampler(space, 23)
		tpe := search.NewTPESampler(space, 23, search.TPEOptions{MinObservations: 4})

		t := Table{
			ID:     "Figure 10",
			Title:  "search-algorithm behaviour over 9 trials on a 2-D objective",
			Header: []string{"algorithm", "best objective", "mean objective (last 3 trials)"},
		}
		for _, s := range []search.Sampler{grid, rnd, tpe} {
			best, tail := run(s)
			t.Rows = append(t.Rows, []string{s.Name(), f3(best), f3(tail)})
		}
		t.Notes = append(t.Notes, "BOHB's final trials concentrate on the promising region; grid and random do not adapt")
		return t, nil
	})
}

var fig11Memo memo[Table]

// Fig11BudgetFlow reproduces Figure 11: the per-iteration trial budgets
// of the epoch, dataset, and multi-budget strategies.
func Fig11BudgetFlow() (Table, error) {
	return fig11Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 11",
			Title:  "trial budget per iteration for the three budget strategies",
			Header: []string{"iteration", "epochs (epochs x frac)", "dataset (epochs x frac)", "multi (epochs x frac)"},
		}
		strategies := make(map[string]budget.Strategy, 3)
		for _, kind := range []string{budget.KindEpochs, budget.KindDataset, budget.KindMulti} {
			s, err := budget.New(kind)
			if err != nil {
				return Table{}, err
			}
			strategies[kind] = s
		}
		format := func(a budget.Allocation) string {
			return fmt.Sprintf("%d x %.0f%%", a.Epochs, a.DataFraction*100)
		}
		for it := 1; it <= 10; it++ {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(it),
				format(strategies[budget.KindEpochs].At(it)),
				format(strategies[budget.KindDataset].At(it)),
				format(strategies[budget.KindMulti].At(it)),
			})
		}
		t.Notes = append(t.Notes, "multi-budget grows both dimensions simultaneously with independent caps (Algorithm 2)")
		return t, nil
	})
}
