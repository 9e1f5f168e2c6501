package experiments

import (
	"context"
	"fmt"

	"edgetune/internal/budget"
	"edgetune/internal/core"
	"edgetune/internal/workload"
)

// tuneKey identifies a memoised EdgeTune run.
type tuneKey struct {
	workload string
	budget   string
	metric   core.Metric
}

var tuneRuns memoByKey[tuneKey, core.Result]

// edgeTuneRun executes (and memoises) an EdgeTune run at the
// comparison scale: tuning proceeds until the workload's target
// accuracy is reached (the paper's convergence criterion), bounded by
// three brackets of eight configurations.
func edgeTuneRun(id, budgetKind string, metric core.Metric) (core.Result, error) {
	if budgetKind == "" {
		budgetKind = budget.KindMulti // the default's run is the multi-budget's
	}
	key := tuneKey{workload: id, budget: budgetKind, metric: metric}
	return tuneRuns.do(key, func() (core.Result, error) {
		res, err := core.Tune(context.Background(), core.Options{
			Workload:       workload.MustNew(id, refWorkloadSeed),
			BudgetKind:     budgetKind,
			Metric:         metric,
			SystemParams:   true,
			InferenceAware: true,
			StopAtTarget:   true,
			Seed:           21,
		})
		if err != nil {
			return res, fmt.Errorf("experiments: edgetune %s/%s/%s: %w", id, budgetKind, metric, err)
		}
		return res, nil
	})
}

var convergenceRuns memoByKey[string, core.Result]

// convergenceRun executes a full-horizon run (~51 trials, no early
// stop) for the Figure 12 convergence study.
func convergenceRun(budgetKind string) (core.Result, error) {
	return convergenceRuns.do(budgetKind, func() (core.Result, error) {
		res, err := core.Tune(context.Background(), core.Options{
			Workload:       workload.MustNew("IC", refWorkloadSeed),
			BudgetKind:     budgetKind,
			SystemParams:   true,
			InferenceAware: true,
			Seed:           21,
		})
		if err != nil {
			return res, fmt.Errorf("experiments: convergence %s: %w", budgetKind, err)
		}
		return res, nil
	})
}

var fig12Memo memo[Table]

// Fig12Convergence reproduces Figure 12: per-trial duration and
// accuracy over ~50 trials for the three budget strategies on the IC
// workload (ResNet18-class on the CIFAR10 analogue).
func Fig12Convergence() (Table, error) {
	return fig12Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 12",
			Title:  "trial duration and accuracy convergence over trials (IC workload, target 80%)",
			Header: []string{"trial", "epochs dur [m]", "epochs acc", "dataset dur [m]", "dataset acc", "multi dur [m]", "multi acc"},
		}
		kinds := []string{budget.KindEpochs, budget.KindDataset, budget.KindMulti}
		results := make(map[string]core.Result, len(kinds))
		for _, k := range kinds {
			res, err := convergenceRun(k)
			if err != nil {
				return Table{}, err
			}
			results[k] = res
		}
		maxTrials := 0
		for _, k := range kinds {
			if n := len(results[k].Trials); n > maxTrials {
				maxTrials = n
			}
		}
		for i := 0; i < maxTrials; i += 5 {
			row := []string{fmt.Sprint(i + 1)}
			for _, k := range kinds {
				trials := results[k].Trials
				if i < len(trials) {
					row = append(row, f1(trials[i].TrainCost.Duration.Minutes()), f3(trials[i].Accuracy))
				} else {
					row = append(row, "-", "-")
				}
			}
			t.Rows = append(t.Rows, row)
		}
		for _, k := range kinds {
			res := results[k]
			best, firstHit := 0.0, -1
			for i, tr := range res.Trials {
				if tr.Accuracy > best {
					best = tr.Accuracy
				}
				if firstHit < 0 && tr.Accuracy >= 0.8 {
					firstHit = i + 1
				}
			}
			hit := "never"
			if firstHit > 0 {
				hit = fmt.Sprintf("trial %d", firstHit)
			}
			t.Notes = append(t.Notes, fmt.Sprintf(
				"%s: best accuracy %.3f, reached 80%% at %s, mean trial duration %.1f m",
				k, best, hit, res.TuningDuration.Minutes()/float64(res.TrialsRun)))
		}
		return t, nil
	})
}

var fig13Memo memo[Table]

// Fig13BudgetAll reproduces Figure 13: tuning duration, tuning energy,
// inference throughput, and inference energy for the three budget
// strategies across all four workloads.
func Fig13BudgetAll() (Table, error) {
	return fig13Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 13",
			Title:  "budget strategies across workloads: tuning cost and recommended-inference performance",
			Header: []string{"workload", "budget", "tuning [m]", "tuning [kJ]", "inf throughput [samples/s]", "inf energy [J/sample]", "max acc", "converged"},
		}
		for _, id := range workload.IDs() {
			for _, kind := range []string{budget.KindEpochs, budget.KindDataset, budget.KindMulti} {
				res, err := edgeTuneRun(id, kind, core.MetricRuntime)
				if err != nil {
					return Table{}, err
				}
				converged := "no"
				if res.ReachedTarget {
					converged = "yes"
				}
				t.Rows = append(t.Rows, []string{
					id, kind,
					f1(res.TuningDuration.Minutes()),
					f1(res.TuningEnergyKJ),
					f1(res.Recommendation.Throughput),
					f3(res.Recommendation.EnergyPerSampleJ),
					f3(res.MaxAccuracy),
					converged,
				})
			}
		}
		t.Notes = append(t.Notes,
			"among the budgets that reach the target accuracy, multi-budget tunes with the lowest runtime and energy; the dataset budget is cheap per trial but never converges",
			"the recommended inference configurations are near-identical across budgets, as the paper observes for IC")
		return t, nil
	})
}

// Fig13Shape exposes the Figure 13 aggregates the tests assert on.
type Fig13Shape struct {
	// DurationM and EnergyKJ are tuning cost by [workload][budget kind].
	DurationM map[string]map[string]float64
	EnergyKJ  map[string]map[string]float64
}

var fig13ShapeMemo memo[Fig13Shape]

// Fig13Aggregates returns the Figure 13 numbers in structured form.
func Fig13Aggregates() (Fig13Shape, error) {
	return fig13ShapeMemo.do(func() (Fig13Shape, error) {
		s := Fig13Shape{
			DurationM: make(map[string]map[string]float64),
			EnergyKJ:  make(map[string]map[string]float64),
		}
		for _, id := range workload.IDs() {
			s.DurationM[id] = make(map[string]float64)
			s.EnergyKJ[id] = make(map[string]float64)
			for _, kind := range []string{budget.KindEpochs, budget.KindDataset, budget.KindMulti} {
				res, err := edgeTuneRun(id, kind, core.MetricRuntime)
				if err != nil {
					return s, err
				}
				s.DurationM[id][kind] = res.TuningDuration.Minutes()
				s.EnergyKJ[id][kind] = res.TuningEnergyKJ
			}
		}
		return s, nil
	})
}
