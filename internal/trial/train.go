package trial

import (
	"errors"
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

// train is the pure part of a trial: build the model, featurise the
// allocation's subset and the test set, train, evaluate. Its result is a
// function of the runner's seed, the configuration, the allocation and
// the attempt and of nothing else, so it may run on any goroutine at any
// time before the Run that reads it; check is polled between mini-batches
// and stops it. It reads the runner's immutable fields only, and keeps
// everything it makes — network and features — on a scratch it takes
// from the free list and gives back.
func (r *Runner) train(cfg search.Config, alloc budget.Allocation, attempt int, check func() error) training {
	a, fresh := acquireScratch()
	defer releaseScratch(a)
	if fresh {
		r.settle(a)
	}
	out, _ := r.trainOn(a, cfg, alloc, attempt, check)
	return out
}

// errSettled stops settle's training after its first step.
var errSettled = errors.New("trial: scratch settled")

// settle sizes a new scratch once, before its first trial, for every
// trial of the runner's workload: it builds the largest configuration of
// the training space on it — deepest or widest model, largest batch, the
// widest features of all of the data (NLP's pair rows are widest at the
// shortest stride) — and runs one training step and one evaluation.
// What that overflowed, the Reset that opens the first trial regrows the
// scratch to hold (tensor.Arena), and no smaller trial asks for more;
// without it a scratch climbs there one regrowth per record-breaking
// trial, and which scratch meets which trial is scheduling. A scratch
// that moves to a bigger workload, or that this failed to settle, grows
// the old way.
func (r *Runner) settle(a *tensor.Arena) {
	space, err := r.workload.TrainSpace(true)
	if err != nil {
		return
	}
	cfg := make(search.Config, space.Dim())
	for _, p := range space.Params() {
		u := 1.0
		if p.Name == workload.ParamStride {
			u = 0
		}
		cfg[p.Name] = p.FromUnit(u)
	}
	net, err := r.workload.BuildModelIn(a, cfg, sim.NewRNG(r.seed))
	if err != nil {
		return
	}
	train, test, err := r.workload.DataIn(a, cfg, 1)
	if err != nil {
		return
	}
	steps := 0
	_, err = nn.Train(net, train.X, train.Labels, nn.TrainConfig{
		Epochs:    1,
		BatchSize: min(int(cfg[workload.ParamTrainBatch]), train.Len()),
		LR:        r.lr,
		Momentum:  r.momentum,
		Check: func() error {
			if steps++; steps > 1 {
				return errSettled
			}
			return nil
		},
	}, nil)
	if errors.Is(err, errSettled) {
		net.Predict(test.X)
	}
}

// trainOn is train on the given scratch, which it resets first. The
// network it also returns is made of the scratch and dies with it.
func (r *Runner) trainOn(a *tensor.Arena, cfg search.Config, alloc budget.Allocation, attempt int, check func() error) (training, *nn.Network) {
	a.Reset()
	// XOR-folding the attempt into the seed keeps attempt 0 identical
	// to the pre-resilience behaviour while giving retries fresh
	// initialisation and shuffling.
	rng := sim.NewRNG(r.seed ^ sim.Hash64(cfg.Key()) ^ (uint64(attempt) * 0xa5a5b5b5c5c5d5d5))
	net, err := r.workload.BuildModelIn(a, cfg, rng)
	if err != nil {
		return training{err: err}, nil
	}
	sub, test, err := r.workload.DataIn(a, cfg, alloc.DataFraction)
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
// network's storage is reused instead of collected. Every scratch that
// was ever in use is kept, so the list is bounded by the most trainings
// that ever ran at once; a scratch is acquired and released around one
// training and owned by nobody in between.
var scratches struct {
	mu   sync.Mutex
	free []*tensor.Arena
}

// acquireScratch takes a scratch off the free list, or makes one and
// says so.
func acquireScratch() (a *tensor.Arena, fresh bool) {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	if n := len(scratches.free); n > 0 {
		a = scratches.free[n-1]
		scratches.free = scratches.free[:n-1]
		return a, false
	}
	return new(tensor.Arena), true
}

func releaseScratch(a *tensor.Arena) {
	scratches.mu.Lock()
	defer scratches.mu.Unlock()
	scratches.free = append(scratches.free, a)
}
