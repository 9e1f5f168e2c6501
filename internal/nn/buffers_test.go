package nn

import (
	"math"
	"testing"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// gradsEqual reports whether two networks' parameters and gradients are
// bit-equal.
func gradsEqual(a, b *Network) bool {
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] || p.Grad.Data[j] != q.Grad.Data[j] {
				return false
			}
		}
	}
	return true
}

// everyLayerNet builds, from one seed, a stack that holds every
// buffer-owning layer (Dropout aside: its RNG stream would tell the two
// runs of the tests below apart).
func everyLayerNet(t *testing.T, seed uint64) *Network {
	t.Helper()
	rng := sim.NewRNG(seed)
	net, err := NewNetworkIn(nil, NewDenseIn(nil, 5, 6, rng), NewReLUIn(nil), NewResidualIn(nil, 6, rng), NewTanhIn(nil), NewDenseIn(nil, 6, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestReusedBuffersMatchFreshNetwork: a step on buffers left dirty, and
// at another size, by earlier batches (one smaller, one larger) computes
// bit-for-bit what a fresh network computes — no layer reads stale
// storage.
func TestReusedBuffersMatchFreshNetwork(t *testing.T) {
	used, fresh := everyLayerNet(t, 5), everyLayerNet(t, 5)
	rng := sim.NewRNG(6)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for _, n := range []int{7, 3, 9} {
		used.ZeroGrad()
		_, grad, err := SoftmaxCrossEntropy(used.Forward(tensor.Randn(n, 5, 1, rng), true), labels[:n])
		if err != nil {
			t.Fatal(err)
		}
		used.Backward(grad)
	}
	x := tensor.Randn(5, 5, 1, rng)
	var logits [2][]float64
	for j, net := range []*Network{used, fresh} {
		net.ZeroGrad()
		out := net.Forward(x, true)
		logits[j] = append(logits[j], out.Data...)
		_, grad, err := SoftmaxCrossEntropy(out, labels[:5])
		if err != nil {
			t.Fatal(err)
		}
		net.Backward(grad)
	}
	for j, v := range logits[0] {
		if v != logits[1][j] {
			t.Fatalf("logit %d on reused buffers %v, fresh %v", j, v, logits[1][j])
		}
	}
	if !gradsEqual(used, fresh) {
		t.Error("gradients on reused buffers differ from a fresh network's")
	}
}

// TestSkippedInputGradChangesNothing: a network whose first Dense skips
// its input gradient (what NewNetwork arranges) and one made to compute
// it hold bit-equal gradients after one step and bit-equal weights after
// twenty — the skipped product fed nothing.
func TestSkippedInputGradChangesNothing(t *testing.T) {
	skip, full := everyLayerNet(t, 8), everyLayerNet(t, 8)
	first := full.Layers()[0].(*Dense)
	if !first.skipInputGrad || !skip.Layers()[0].(*Dense).skipInputGrad {
		t.Fatal("NewNetwork did not mark the first Dense")
	}
	first.skipInputGrad = false

	rng := sim.NewRNG(9)
	x := tensor.Randn(8, 5, 1, rng)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1}
	for _, net := range []*Network{skip, full} {
		opt, err := NewSGD(0.05, 0.9, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			if _, err := net.TrainStep(opt, x, labels); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !gradsEqual(skip, full) {
		t.Error("skipping the first layer's input gradient changed a weight or a gradient")
	}
	if first.dx.Rows != 8 || skip.Layers()[0].(*Dense).dx.Data != nil {
		t.Error("the full network did not compute the input gradient, or the skipping one did")
	}
}

// TestPairsDenseIsDense: a first layer built to read (k, value) pairs,
// fed the pairs of sparse rows, computes bit for bit the logits of a
// plain Dense fed the rows themselves, and after twenty steps holds the
// same weights — through a ragged batch, and with no input gradient.
func TestPairsDenseIsDense(t *testing.T) {
	const in = 13
	rng := sim.NewRNG(12)
	rows := tensor.New(9, in)
	pairs := tensor.New(rows.Rows, 2*in)
	for i := 0; i < rows.Rows; i++ {
		p := pairs.Row(i)[:0]
		for k := 0; k < in; k++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				rows.Set(i, k, v)
				p = append(p, float64(k), v)
			}
		}
	}
	var nets [2]*Network
	for i, first := range []func(*tensor.Arena, int, int, *sim.RNG) *Dense{NewDenseIn, NewPairsDenseIn} {
		rng := sim.NewRNG(13)
		var err error
		if nets[i], err = NewNetworkIn(nil, first(nil, in, 6, rng), NewTanhIn(nil), NewDenseIn(nil, 6, 3, rng)); err != nil {
			t.Fatal(err)
		}
	}
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i, x := range []*tensor.Matrix{rows, pairs} {
		opt, err := NewSGD(0.05, 0.9, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			n := 9 - 4*(step%2)
			batch := x.RowSlice(nil, 0, n)
			if _, err := nets[i].TrainStep(opt, batch, labels[:n]); err != nil {
				t.Fatal(err)
			}
		}
	}
	dense, paired := nets[0].Forward(rows, false).Data, nets[1].Forward(pairs, false).Data
	for j, v := range dense {
		if math.Float64bits(v) != math.Float64bits(paired[j]) {
			t.Fatalf("logit %d: %v from the rows, %v from their pairs", j, v, paired[j])
		}
	}
	if !gradsEqual(nets[0], nets[1]) {
		t.Error("training on pairs left other weights or gradients than training on the rows")
	}
	// Not even outside a network, where no NewNetwork marks it first.
	d := NewPairsDenseIn(nil, in, 6, rng)
	if d.Forward(pairs, true); d.Backward(tensor.New(pairs.Rows, 6)) != nil || d.dx.Data != nil {
		t.Error("the pairs layer computed an input gradient")
	}
}

// TestBackwardAfterInferenceForwardPanics pins the buffer-lifetime rule:
// an inference Forward (Accuracy, Predict) between a training Forward
// and its Backward overwrites the cached activations, so that Backward
// is rejected rather than allowed to compute garbage.
func TestBackwardAfterInferenceForwardPanics(t *testing.T) {
	rng := sim.NewRNG(3)
	net := mlp(t, rng, 2, 4, 2)
	x, labels := blobs(6, rng)
	_, grad, err := SoftmaxCrossEntropy(net.Forward(x, true), labels)
	if err != nil {
		t.Fatal(err)
	}
	net.Backward(grad) // directly after the training Forward: fine
	net.Forward(x, true)
	net.Accuracy(x, labels)
	defer func() {
		if recover() == nil {
			t.Error("Backward after an inference Forward did not panic")
		}
	}()
	net.Backward(grad)
}

// TestDropoutMaskRewrittenEachForward: a dropped unit must block the
// gradient even when the reused mask held a survivor there last time.
func TestDropoutMaskRewrittenEachForward(t *testing.T) {
	d, err := NewDropoutIn(nil, 0.5, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	ones := tensor.New(4, 50)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	for round := 0; round < 3; round++ {
		out := d.Forward(ones, true)
		back := d.Backward(ones)
		for i, v := range out.Data {
			if back.Data[i] != v {
				t.Fatalf("round %d: unit %d forwards %v but backpropagates %v", round, i, v, back.Data[i])
			}
		}
	}
}

func TestParamsBuiltOnce(t *testing.T) {
	net := mlp(t, sim.NewRNG(1), 3, 4, 2)
	a, b := net.Params(), net.Params()
	if len(a) != 4 || &a[0] != &b[0] {
		t.Errorf("Params() returned %d params, or rebuilt its slice", len(a))
	}
}

// TestPredictChunksMatchWholeMatrix: Predict forwards evalChunk rows at
// a time; the classes equal one whole-matrix Forward's, ragged tail
// included.
func TestPredictChunksMatchWholeMatrix(t *testing.T) {
	rng := sim.NewRNG(2)
	net := mlp(t, rng, 2, 8, 3)
	x := tensor.Randn(2*evalChunk+5, 2, 1, rng)
	want := net.Forward(x, false).ArgmaxRowsInto(make([]int, x.Rows))
	got := net.Predict(x)
	if len(got) != len(want) {
		t.Fatalf("Predict returned %d classes for %d rows", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: chunked class %d, whole-matrix class %d", i, got[i], want[i])
		}
	}
}

// TestTrainStepSteadyStateAllocs: once the buffers have grown to the
// largest batch, a step allocates nothing — through a ragged batch and
// a shrink-then-grow sequence, on every buffer-owning layer.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	rng := sim.NewRNG(7)
	drop, err := NewDropoutIn(nil, 0.3, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	withDrop, err := NewNetworkIn(nil, NewDenseIn(nil, 5, 6, rng), drop, NewDenseIn(nil, 6, 3, rng))
	if err != nil {
		t.Fatal(err)
	}
	nets := []*Network{everyLayerNet(t, 7), withDrop}
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i, net := range nets {
		opt, err := NewSGD(0.01, 0.9, 0)
		if err != nil {
			t.Fatal(err)
		}
		batches := map[int]*tensor.Matrix{}
		for _, n := range []int{12, 5, 9} {
			batches[n] = tensor.Randn(n, 5, 1, rng)
		}
		steps := func() {
			for _, n := range []int{12, 5, 9, 12} {
				if _, err := net.TrainStep(opt, batches[n], labels[:n]); err != nil {
					t.Fatal(err)
				}
			}
		}
		steps() // grow the buffers and the optimiser's velocity
		if allocs := testing.AllocsPerRun(10, steps); allocs != 0 {
			t.Errorf("stack %d: four steady-state steps allocate %.1f times, want 0", i, allocs)
		}
	}
}
