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
			m := w.Split.Train.Meta
			t.Rows = append(t.Rows, []string{
				w.Task,
				w.ID,
				w.ModelFamily,
				m.Corpus,
				humanBytes(m.PaperSizeBytes),
				fmt.Sprint(m.PaperTrainFiles),
				fmt.Sprint(m.PaperTestFiles),
				fmt.Sprintf("%d/%d", w.Split.Train.Len(), w.Split.Test.Len()),
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

// hotLoops are the ledger's generated experiments, one per loop of the
// internal/hotloop table: `benchtab -json` carries the loop's allocs/op
// and bytes/op under the ID, and `tracetool check-bench` holds them to
// the committed BENCH_*.json. (BenchmarkAutoscaleDecision has rows of
// its own and takes only its probe from the table.)
var hotLoops = []struct {
	id, title, stage string
	memo             memo[Table]
}{
	{id: "BenchmarkNNMiniBatch", title: "training mini-batch step (18-layer IC model, batch 32)", stage: "nn.minibatch-step"},
	{id: "BenchmarkPerfmodelEval", title: "perfmodel inference-cost evaluation per device", stage: "perfmodel.infer-cost"},
	{id: "BenchmarkAdmissionServe", title: "inference server admission + serve (cache-hit path)", stage: "serve.cache-hit"},
	{id: "BenchmarkTPESearch", title: "24-trial BOHB inference search (i7, runtime objective)", stage: "search.tpe-search"},
	{id: "BenchmarkTrialRun", title: "training trial on a warm scratch (one IC + one NLP trial)", stage: "trial.run"},
	{id: "BenchmarkTraceEmit", title: "trace emission (root + child span with attrs)", stage: "trace.emit"},
	{id: "BenchmarkWALAppend", title: "durable store WAL append (put + checksummed journal write)", stage: "store.wal-append"},
	{id: "BenchmarkClusterDispatch", title: "cluster dispatch (consistent-hash ring owner lookup)", stage: "cluster.dispatch"},
	{id: "BenchmarkFlightRecord", title: "flight recorder event record (preallocated ring slot)", stage: "flight.record"},
}

// hotLoopRun is the harness of hotLoops[i]. Its one row names what was
// probed; the measured values are not byte-deterministic and stay out
// of the rows.
func hotLoopRun(i int) func() (Table, error) {
	l := &hotLoops[i]
	return func() (Table, error) {
		return l.memo.do(func() (Table, error) {
			t := Table{
				ID:     l.id,
				Title:  l.title,
				Header: []string{"stage", "probe-runs"},
				Rows:   [][]string{{l.stage, fmt.Sprint(probeRuns)}},
			}
			if err := t.probe(l.stage); err != nil {
				return Table{}, err
			}
			return t, nil
		})
	}
}

// All returns every experiment in paper order, for cmd/benchtab.
func All() []Experiment {
	all := []Experiment{
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
		{ID: "BenchmarkAutoscaleDecision", Run: BenchmarkAutoscaleDecision},
	}
	for i := range hotLoops {
		all = append(all, Experiment{ID: hotLoops[i].id, Run: hotLoopRun(i)})
	}
	return all
}
