package trial

import (
	"runtime"
	"sync"

	"edgetune/internal/budget"
	"edgetune/internal/nn"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/tensor"
	"edgetune/internal/workload"
)

// training is what the pure part of a trial produces.
type training struct {
	accuracy  float64
	steps     int     // optimiser steps taken
	finalLoss float64 // mean loss of the last epoch
	err       error
}

// train is the pure part of a trial: build the model, featurise, take
// the allocation's subset, train, evaluate. Its result is a function of
// the runner's seed, the configuration, the allocation and the attempt
// and of nothing else, so it may run on any goroutine at any time before
// the Run that reads it; check is polled between mini-batches and stops
// it. It touches the runner through its read-only fields and the stride
// memo only, and trains on a scratch it takes from the free list and
// gives back.
func (r *Runner) train(cfg search.Config, alloc budget.Allocation, attempt int, check func() error) training {
	a := acquireScratch()
	defer releaseScratch(a)
	out, _ := r.trainOn(a, cfg, alloc, attempt, check)
	return out
}

// trainOn is train on the given scratch, which it resets first. The
// network it also returns is made of the scratch and dies with it.
func (r *Runner) trainOn(a *tensor.Arena, cfg search.Config, alloc budget.Allocation, attempt int, check func() error) (training, *nn.Network) {
	a.Reset()
	// XOR-folding the attempt into the seed keeps attempt 0 identical
	// to the pre-resilience behaviour while giving retries fresh
	// initialisation and shuffling.
	rng := sim.NewRNG(r.seed ^ hashString(cfg.Key()) ^ (uint64(attempt) * 0xa5a5b5b5c5c5d5d5))
	net, err := r.workload.BuildModelIn(a, cfg, rng)
	if err != nil {
		return training{err: err}, nil
	}
	train, test, err := r.data(cfg)
	if err != nil {
		return training{err: err}, nil
	}
	sub, err := train.Subset(alloc.DataFraction)
	if err != nil {
		return training{err: err}, nil
	}

	// The synthetic dataset is downscaled but trials keep the paper's
	// mini-batch size, so each epoch takes proportionally fewer
	// optimiser steps. That scarcity is what gives the paper's budget
	// dimensions their distinct roles: a single epoch (the dataset
	// budget's regime) cannot converge regardless of the data fraction,
	// while added epochs buy real accuracy.
	//
	// A fixed step size across the paper's 32-512 batch sweep: larger
	// batches take fewer (not larger) steps per epoch, which is what
	// makes the batch-size hyperparameter matter to the tuner.
	stats, err := nn.Train(net, sub.X, sub.Labels, nn.TrainConfig{
		Epochs:    alloc.Epochs,
		BatchSize: min(int(cfg[workload.ParamTrainBatch]), sub.Len()),
		LR:        r.lr,
		Momentum:  r.momentum,
		Shuffle:   true,
		Check:     check,
	}, rng)
	if err != nil {
		return training{err: err}, nil
	}
	return training{
		accuracy:  net.Accuracy(test.X, test.Labels),
		steps:     stats.Steps,
		finalLoss: stats.FinalLoss,
	}, net
}

// scratches is the free list of training scratches: one bump arena per
// trainer that is training right now, kept between trials so that a
// network's storage is reused instead of collected. It holds at most
// GOMAXPROCS arenas; a scratch is acquired and released around one
// training and owned by nobody in between.
var scratches struct {
	mu   sync.Mutex
	free []*tensor.Arena
}

func acquireScratch() *tensor.Arena {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if n := len(scratches.free); n > 0 {
		a := scratches.free[n-1]
		scratches.free = scratches.free[:n-1]
		return a
	}
	return new(tensor.Arena)
}

func releaseScratch(a *tensor.Arena) {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if len(scratches.free) < runtime.GOMAXPROCS(0) {
		scratches.free = append(scratches.free, a)
	}
}

// hashString is FNV-1a, used to derive per-config training seeds.
func hashString(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
