package experiments

import (
	"fmt"

	"edgetune/internal/workload"
)

var table1Memo memo[Table]

// Table1Workloads reproduces Table 1: the workload catalogue, including
// the paper-scale corpus sizes each synthetic analogue represents.
func Table1Workloads() (Table, error) {
	return table1Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Table 1",
			Title:  "workloads used for experiments",
			Header: []string{"type", "id", "model", "dataset", "datasize", "train files", "test files", "synthetic train/test"},
		}
		for _, id := range workload.IDs() {
			w, err := workload.New(id, refWorkloadSeed)
			if err != nil {
				return Table{}, err
			}
			split := w.Split()
			m := split.Train.Meta
			t.Rows = append(t.Rows, []string{
				w.Task,
				w.ID,
				w.ModelFamily,
				m.Corpus,
				humanBytes(m.PaperSizeBytes),
				fmt.Sprint(m.PaperTrainFiles),
				fmt.Sprint(m.PaperTestFiles),
				fmt.Sprintf("%d/%d", split.Train.Len(), split.Test.Len()),
			})
		}
		return t, nil
	})
}

var table2Memo memo[Table]

// Table2Features reproduces Table 2: the feature matrix of related
// systems. Rows are reproduced from the paper; the EdgeTune row is the
// contract this repository implements (and its integration tests
// verify).
func Table2Features() (Table, error) {
	return table2Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Table 2",
			Title:  "state-of-the-art systems related to hyper and system parameter tuning",
			Header: []string{"system", "cpu", "gpu", "hyper", "system", "architecture", "tuning", "training", "inference", "multi-sample inference"},
			Rows: [][]string{
				{"ChamNet", "y", "y", "n", "n", "y", "n", "y", "y", "n"},
				{"DPP-Net", "y", "y", "n", "n", "y", "n", "y", "y", "n"},
				{"FBNet", "y", "y", "n", "n", "y", "n", "y", "y", "n"},
				{"HyperPower", "n", "y", "y", "n", "y", "y", "y", "n", "n"},
				{"MnasNet", "y", "n", "n", "n", "y", "n", "y", "y", "n"},
				{"NeuralPower", "n", "y", "n", "n", "y", "y", "y", "n", "n"},
				{"ProxylessNAS", "y", "y", "n", "n", "y", "n", "y", "y", "n"},
				{"EdgeTune", "y", "y", "y", "y", "y", "y", "y", "y", "y"},
			},
			Notes: []string{"EdgeTune is the only system covering CPUs, GPUs, hyper/system/architecture parameters, all three objectives, and multi-sample inference"},
		}
		return t, nil
	})
}

// humanBytes renders a byte count the way Table 1 does.
func humanBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// Experiment pairs an experiment's identity with its harness, so
// callers can filter without executing.
type Experiment struct {
	// ID is the paper label ("Figure 13", "Table 1").
	ID string
	// Run regenerates the experiment (memoised).
	Run func() (Table, error)
}

// All returns every experiment in paper order, for cmd/benchtab.
func All() []Experiment {
	return []Experiment{
		{ID: "Figure 1", Run: Fig01PerfCounters},
		{ID: "Figure 2", Run: Fig02ModelHyper},
		{ID: "Figure 3", Run: Fig03TrainingHyper},
		{ID: "Figure 4", Run: Fig04TrainSystem},
		{ID: "Figure 5", Run: Fig05InferSystem},
		{ID: "Figure 6", Run: Fig06Pipelining},
		{ID: "Figure 8", Run: Fig08Batching},
		{ID: "Figure 9", Run: Fig09HierVsOnefold},
		{ID: "Figure 10", Run: Fig10SearchAlgos},
		{ID: "Figure 11", Run: Fig11BudgetFlow},
		{ID: "Figure 12", Run: Fig12Convergence},
		{ID: "Figure 13", Run: Fig13BudgetAll},
		{ID: "Figure 14", Run: Fig14VsTune},
		{ID: "Figure 15", Run: Fig15EstimationError},
		{ID: "Figure 16", Run: Fig16Objectives},
		{ID: "Figure 17", Run: Fig17VsHyperPower},
		{ID: "Table 1", Run: Table1Workloads},
		{ID: "Table 2", Run: Table2Features},
	}
}
