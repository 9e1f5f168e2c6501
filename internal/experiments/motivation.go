package experiments

import (
	"fmt"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/workload"
)

// refWorkloadSeed seeds every motivation experiment.
const refWorkloadSeed = 1

// icTrainSpec is the reference training run of the motivation figures:
// the IC workload at paper scale, 10 epochs.
func icTrainSpec(layers float64, batch, gpus int) (perfmodel.TrainSpec, error) {
	w := workload.MustNew("IC", refWorkloadSeed)
	flops, params, err := w.PaperCost(search.Config{workload.ParamLayers: layers})
	if err != nil {
		return perfmodel.TrainSpec{}, err
	}
	return perfmodel.TrainSpec{
		FLOPsPerSample: flops,
		Params:         params,
		Samples:        w.Split().Train.PaperSamples(),
		Epochs:         10,
		BatchSize:      batch,
		GPUs:           gpus,
	}, nil
}

func icInferSpec(layers float64, batch, cores int, freq float64) (perfmodel.InferSpec, error) {
	w := workload.MustNew("IC", refWorkloadSeed)
	flops, params, err := w.PaperCost(search.Config{workload.ParamLayers: layers})
	if err != nil {
		return perfmodel.InferSpec{}, err
	}
	return perfmodel.InferSpec{
		FLOPsPerSample: flops,
		Params:         params,
		BatchSize:      batch,
		Cores:          cores,
		FreqGHz:        freq,
	}, nil
}

var fig01Memo memo[Table]

// Fig01PerfCounters reproduces Figure 1: perf-counter event rates during
// the forward phase of training versus inference, showing CPU-bound
// events consistent and memory-bound events divergent.
func Fig01PerfCounters() (Table, error) {
	return fig01Memo.do(func() (Table, error) {
		col, err := counters.NewCollector(refWorkloadSeed, 0.02)
		if err != nil {
			return Table{}, err
		}
		train, err := col.Collect(counters.TrainingForward, 1)
		if err != nil {
			return Table{}, err
		}
		infer, err := col.Collect(counters.Inference, 1)
		if err != nil {
			return Table{}, err
		}
		t := Table{
			ID:     "Figure 1",
			Title:  "performance counter events, training-forward vs inference (events/s)",
			Header: []string{"event", "class", "train-forward", "inference", "ratio"},
		}
		for i := range train {
			class := "cpu"
			if train[i].Event.Class == counters.MemoryBound {
				class = "memory"
			}
			t.Rows = append(t.Rows, []string{
				train[i].Event.Name,
				class,
				fmt.Sprintf("%.3g", train[i].Rate),
				fmt.Sprintf("%.3g", infer[i].Rate),
				f2(infer[i].Rate / train[i].Rate),
			})
		}
		cpu, mem, err := counters.Divergence(train, infer)
		if err != nil {
			return Table{}, err
		}
		t.Notes = append(t.Notes,
			fmt.Sprintf("mean |log10 ratio|: cpu-bound %.3f, memory-bound %.3f — memory-bound events diverge, motivating a dedicated inference server", cpu, mem))
		return t, nil
	})
}

var fig02Memo memo[Table]

// Fig02ModelHyper reproduces Figure 2: the effect of the number of
// layers on training (runtime, energy) and inference (throughput,
// J/img).
func Fig02ModelHyper() (Table, error) {
	return fig02Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 2",
			Title:  "model hyperparameter (layers) vs training and inference performance",
			Header: []string{"layers", "train runtime [m]", "train energy [kJ]", "inf throughput [imgs/s]", "inf energy [J/img]"},
		}
		gpu := perfmodel.TitanRTX()
		dev := device.I7()
		for _, layers := range []float64{18, 34, 50} {
			ts, err := icTrainSpec(layers, 256, 1)
			if err != nil {
				return Table{}, err
			}
			tc, err := perfmodel.TrainingCost(ts, gpu)
			if err != nil {
				return Table{}, err
			}
			is, err := icInferSpec(layers, 10, dev.Profile.MaxCores, dev.Profile.MaxFreqGHz)
			if err != nil {
				return Table{}, err
			}
			ir, err := dev.Estimate(is)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", layers),
				f1(tc.Duration.Minutes()),
				f1(tc.KJ()),
				f1(ir.Throughput),
				f3(ir.EnergyPerSampleJ),
			})
		}
		t.Notes = append(t.Notes,
			"throughput is inversely proportional to depth while J/img grows with it (the paper's Figure 2b trade-off)")
		return t, nil
	})
}

var fig03Memo memo[Table]

// Fig03TrainingHyper reproduces Figure 3: training batch size (256, 512,
// 1024) vs training cost, and inference batch size (1, 10, 100) vs
// inference performance.
func Fig03TrainingHyper() (Table, error) {
	return fig03Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 3",
			Title:  "training and inference batch-size sweeps",
			Header: []string{"phase", "batch", "runtime [m] / throughput [imgs/s]", "energy [kJ] / [J/img]"},
		}
		gpu := perfmodel.TitanRTX()
		for _, batch := range []int{256, 512, 1024} {
			ts, err := icTrainSpec(18, batch, 1)
			if err != nil {
				return Table{}, err
			}
			tc, err := perfmodel.TrainingCost(ts, gpu)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				"train", fmt.Sprint(batch), f1(tc.Duration.Minutes()), f1(tc.KJ()),
			})
		}
		dev := device.I7()
		for _, batch := range []int{1, 10, 100} {
			is, err := icInferSpec(18, batch, dev.Profile.MaxCores, dev.Profile.MaxFreqGHz)
			if err != nil {
				return Table{}, err
			}
			ir, err := dev.Estimate(is)
			if err != nil {
				return Table{}, err
			}
			t.Rows = append(t.Rows, []string{
				"infer", fmt.Sprint(batch), f1(ir.Throughput), f3(ir.EnergyPerSampleJ),
			})
		}
		t.Notes = append(t.Notes,
			"batch 1024 is slower and more energy-hungry; 256 vs 512 similar runtime, different energy (Fig 3a)",
			"inference throughput peaks at the interior batch and decays past it (Fig 3b)")
		return t, nil
	})
}

var fig04Memo memo[Table]

// Fig04TrainSystem reproduces Figure 4: GPU count (1, 4, 8) at training
// batch 32 and 1024.
func Fig04TrainSystem() (Table, error) {
	return fig04Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 4",
			Title:  "training system parameters: GPUs x batch size",
			Header: []string{"batch", "gpus", "runtime [m]", "energy [kJ]"},
		}
		gpu := perfmodel.TitanRTX()
		for _, batch := range []int{32, 1024} {
			for _, g := range []int{1, 4, 8} {
				ts, err := icTrainSpec(18, batch, g)
				if err != nil {
					return Table{}, err
				}
				tc, err := perfmodel.TrainingCost(ts, gpu)
				if err != nil {
					return Table{}, err
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(batch), fmt.Sprint(g), f1(tc.Duration.Minutes()), f1(tc.KJ()),
				})
			}
		}
		t.Notes = append(t.Notes,
			"batch 32: more GPUs increase runtime (communication-bound, up to ~+120%) and energy",
			"batch 1024: runtime improves sublinearly while energy still grows")
		return t, nil
	})
}

var fig05Memo memo[Table]

// Fig05InferSystem reproduces Figure 5: CPU cores (1, 2, 4) at inference
// batch 1 and 10.
func Fig05InferSystem() (Table, error) {
	return fig05Memo.do(func() (Table, error) {
		t := Table{
			ID:     "Figure 5",
			Title:  "inference system parameters: CPU cores x batch size",
			Header: []string{"batch", "cores", "throughput [imgs/s]", "energy [J/img]", "power [W]"},
		}
		dev := device.I7()
		for _, batch := range []int{1, 10} {
			for _, cores := range []int{1, 2, 4} {
				is, err := icInferSpec(18, batch, cores, dev.Profile.MaxFreqGHz)
				if err != nil {
					return Table{}, err
				}
				ir, err := dev.Estimate(is)
				if err != nil {
					return Table{}, err
				}
				t.Rows = append(t.Rows, []string{
					fmt.Sprint(batch), fmt.Sprint(cores),
					f1(ir.Throughput), f3(ir.EnergyPerSampleJ), f2(ir.PowerW),
				})
			}
		}
		t.Notes = append(t.Notes,
			"batch 1: cores do not raise throughput but raise energy (Fig 5a)",
			"batch 10: 4 cores beat 2 by only a few percent at ~33% more power (Fig 5b)")
		return t, nil
	})
}
