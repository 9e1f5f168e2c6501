package nn

import (
	"math"
	"testing"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// arenaStack builds, in a (nil = the heap), a network holding every
// layer that has an …In constructor, from one seed.
func arenaStack(t *testing.T, a *tensor.Arena, seed uint64, width int) *Network {
	t.Helper()
	rng := sim.NewRNG(seed)
	drop, err := NewDropoutIn(a, 0.2, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetworkIn(a,
		NewDenseIn(a, 5, width, rng), NewReLUIn(a), NewResidualIn(a, width, rng),
		drop, NewTanhIn(a), NewDenseIn(a, width, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// trainedWeights trains net on a fixed problem and returns the run's
// statistics, its predictions and a copy of every weight.
func trainedWeights(t *testing.T, net *Network, batch int) (TrainStats, []int, []float64) {
	t.Helper()
	rng := sim.NewRNG(77)
	x := tensor.Randn(70, 5, 1, rng)
	labels := make([]int, x.Rows)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	stats, err := Train(net, x, labels, TrainConfig{Epochs: 3, BatchSize: batch, LR: 0.02, Momentum: 0.9, Shuffle: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pred := append([]int(nil), net.Predict(x)...)
	var weights []float64
	for _, p := range net.Params() {
		weights = append(weights, p.W.Data...)
	}
	return stats, pred, weights
}

// TestArenaNetworkTrainsLikeHeapNetwork: a network built and trained in
// an arena — a fresh one, one a wider network at another batch size has
// just used, one filled with NaNs in between — ends with the heap
// network's statistics, predictions and weights, bit for bit. No layer
// reads storage it did not write, and nothing the heap zeroes for free
// is left unzeroed.
func TestArenaNetworkTrainsLikeHeapNetwork(t *testing.T) {
	wantStats, wantPred, wantW := trainedWeights(t, arenaStack(t, nil, 3, 6), 16)
	a := new(tensor.Arena)
	for _, dirty := range []string{"fresh", "used", "poisoned"} {
		switch dirty {
		case "used":
			trainedWeights(t, arenaStack(t, a, 9, 11), 40)
		case "poisoned":
			a.Reset()
			floats, ints := a.New(1, 1<<16).Data, a.Ints(1<<12)
			for i := range floats {
				floats[i] = math.NaN()
			}
			for i := range ints {
				ints[i] = -7
			}
		}
		a.Reset()
		stats, pred, w := trainedWeights(t, arenaStack(t, a, 3, 6), 16)
		if stats != wantStats {
			t.Errorf("%s arena: statistics %+v, heap %+v", dirty, stats, wantStats)
		}
		for i := range wantPred {
			if pred[i] != wantPred[i] {
				t.Fatalf("%s arena: prediction %d is %d, heap %d", dirty, i, pred[i], wantPred[i])
			}
		}
		for i := range wantW {
			if w[i] != wantW[i] {
				t.Fatalf("%s arena: weight %d is %v, heap %v", dirty, i, w[i], wantW[i])
			}
		}
	}
}

// TestTrainAllocatesNothingPerEpochOrEvaluation: more epochs cost no
// more allocations (one sample order, re-permuted in place), a second
// Predict costs none (the network keeps its result and its row view),
// and a whole build-train-evaluate on a settled arena stays within the
// few dozen small objects a network is made of.
func TestTrainAllocatesNothingPerEpochOrEvaluation(t *testing.T) {
	rng := sim.NewRNG(5)
	x := tensor.Randn(90, 5, 1, rng)
	labels := make([]int, x.Rows)
	train := func(net *Network, epochs int) {
		if _, err := Train(net, x, labels, TrainConfig{Epochs: epochs, BatchSize: 32, LR: 0.01, Momentum: 0.9, Shuffle: true}, rng); err != nil {
			t.Fatal(err)
		}
	}
	heap := arenaStack(t, nil, 1, 6)
	train(heap, 1) // grow the layers' buffers
	one := testing.AllocsPerRun(5, func() { train(heap, 1) })
	six := testing.AllocsPerRun(5, func() { train(heap, 6) })
	if six != one {
		t.Errorf("Train allocates %.0f times over one epoch and %.0f over six", one, six)
	}
	heap.Predict(x)
	if n := testing.AllocsPerRun(5, func() { heap.Accuracy(x, labels) }); n != 0 {
		t.Errorf("a second evaluation allocates %.0f times", n)
	}

	a := new(tensor.Arena)
	trial := func() {
		a.Reset()
		net := arenaStack(t, a, 1, 6)
		train(net, 2)
		net.Accuracy(x, labels)
	}
	trial()
	trial()
	onHeap := testing.AllocsPerRun(5, func() { net := arenaStack(t, nil, 1, 6); train(net, 2); net.Accuracy(x, labels) })
	inArena := testing.AllocsPerRun(5, trial)
	t.Logf("allocations per trial: %.0f on the heap, %.0f in a settled arena", onHeap, inArena)
	if inArena > onHeap/2 {
		t.Errorf("a trial allocates %.0f times in a settled arena, %.0f on the heap: the arena takes less than half", inArena, onHeap)
	}
}
