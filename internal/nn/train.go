package nn

import (
	"fmt"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// TrainConfig bundles the training hyperparameters of mini-batch SGD.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Shuffle controls whether samples are re-permuted each epoch.
	Shuffle bool
	// Check, when non-nil, is polled before every mini-batch; a
	// non-nil return aborts training with that error, so long runs
	// respond to cancellation between chunks rather than only at the
	// call boundary.
	Check func() error
}

// TrainStats reports what a training run actually did, so the performance
// model can charge simulated time and energy for it.
type TrainStats struct {
	Epochs      int
	Steps       int     // optimiser steps taken
	SamplesSeen int     // total samples propagated (fw+bw)
	FinalLoss   float64 // mean loss of the last epoch
}

// Train runs mini-batch SGD on (x, labels) for cfg.Epochs epochs and
// returns run statistics. x rows are samples; labels has one class index
// per row.
func Train(net *Network, x *tensor.Matrix, labels []int, cfg TrainConfig, rng *sim.RNG) (TrainStats, error) {
	var stats TrainStats
	if x.Rows != len(labels) {
		return stats, fmt.Errorf("nn: %d samples but %d labels", x.Rows, len(labels))
	}
	if cfg.Epochs <= 0 {
		return stats, fmt.Errorf("nn: epochs %d must be positive", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return stats, fmt.Errorf("nn: batch size %d must be positive", cfg.BatchSize)
	}
	opt, err := newSGD(net.arena, cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if err != nil {
		return stats, err
	}

	n := x.Rows
	order := net.arena.Ints(n) // one sample order, re-permuted per epoch
	for i := range order {
		order[i] = i
	}

	bx := net.arena.Buffer() // the gathered batch, reused across steps
	by := net.arena.Ints(min(cfg.BatchSize, n))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Shuffle && rng != nil {
			rng.PermInto(order)
		}
		var epochLoss float64
		var batches int
		for start := 0; start < n; start += cfg.BatchSize {
			if cfg.Check != nil {
				if err := cfg.Check(); err != nil {
					return stats, err
				}
			}
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			by = gatherBatch(&bx, by[:0], x, labels, order[start:end])
			loss, err := net.TrainStep(opt, &bx, by)
			if err != nil {
				return stats, err
			}

			epochLoss += loss
			batches++
			stats.Steps++
			stats.SamplesSeen += end - start
		}
		if batches > 0 {
			stats.FinalLoss = epochLoss / float64(batches)
		}
		stats.Epochs++
	}
	return stats, nil
}

// gatherBatch copies the selected rows into the contiguous batch bx,
// resizing it, and appends their labels to by.
func gatherBatch(bx *tensor.Matrix, by []int, x *tensor.Matrix, labels []int, idx []int) []int {
	bx.Resize(len(idx), x.Cols)
	for i, src := range idx {
		copy(bx.Row(i), x.Row(src))
		by = append(by, labels[src])
	}
	return by
}
