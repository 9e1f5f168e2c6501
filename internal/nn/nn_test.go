package nn

import (
	"math"
	"testing"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// xorData returns a linearly non-separable 2-class problem.
func xorData() (*tensor.Matrix, []int) {
	x, _ := tensor.FromSlice(4, 2, []float64{0, 0, 0, 1, 1, 0, 1, 1})
	return x, []int{0, 1, 1, 0}
}

// blobs returns two Gaussian clusters per class: an easy problem any
// working training loop must solve.
func blobs(n int, rng *sim.RNG) (*tensor.Matrix, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := -2.0
		if cls == 1 {
			cx = 2.0
		}
		x.Set(i, 0, cx+rng.NormFloat64()*0.5)
		x.Set(i, 1, cx+rng.NormFloat64()*0.5)
		labels[i] = cls
	}
	return x, labels
}

func mlp(t *testing.T, rng *sim.RNG, dims ...int) *Network {
	t.Helper()
	var layers []Layer
	for i := 0; i+1 < len(dims); i++ {
		layers = append(layers, NewDenseIn(nil, dims[i], dims[i+1], rng))
		if i+2 < len(dims) {
			layers = append(layers, NewReLUIn(nil))
		}
	}
	net, err := NewNetworkIn(nil, layers...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewNetworkRequiresLayers(t *testing.T) {
	if _, err := NewNetworkIn(nil); err == nil {
		t.Error("empty network did not error")
	}
}

func TestTrainLearnsBlobs(t *testing.T) {
	rng := sim.NewRNG(1)
	x, labels := blobs(200, rng)
	net := mlp(t, rng, 2, 8, 2)
	stats, err := Train(net, x, labels, TrainConfig{
		Epochs: 10, BatchSize: 16, LR: 0.1, Momentum: 0.9, Shuffle: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs != 10 {
		t.Errorf("Epochs = %d, want 10", stats.Epochs)
	}
	if acc := net.Accuracy(x, labels); acc < 0.95 {
		t.Errorf("accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	rng := sim.NewRNG(7)
	x, labels := xorData()
	net := mlp(t, rng, 2, 16, 16, 2)
	if _, err := Train(net, x, labels, TrainConfig{
		Epochs: 400, BatchSize: 4, LR: 0.1, Momentum: 0.9,
	}, rng); err != nil {
		t.Fatal(err)
	}
	if acc := net.Accuracy(x, labels); acc != 1 {
		t.Errorf("XOR accuracy = %v, want 1 (non-linear problem)", acc)
	}
}

func TestTrainStatsAccounting(t *testing.T) {
	rng := sim.NewRNG(3)
	x, labels := blobs(50, rng)
	net := mlp(t, rng, 2, 4, 2)
	stats, err := Train(net, x, labels, TrainConfig{Epochs: 2, BatchSize: 20, LR: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// 50 samples / batch 20 => 3 steps per epoch (20+20+10).
	if stats.Steps != 6 {
		t.Errorf("Steps = %d, want 6", stats.Steps)
	}
	if stats.SamplesSeen != 100 {
		t.Errorf("SamplesSeen = %d, want 100", stats.SamplesSeen)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := sim.NewRNG(3)
	x, labels := blobs(10, rng)
	net := mlp(t, rng, 2, 2)
	tests := []struct {
		name string
		cfg  TrainConfig
	}{
		{name: "zero epochs", cfg: TrainConfig{Epochs: 0, BatchSize: 4, LR: 0.1}},
		{name: "zero batch", cfg: TrainConfig{Epochs: 1, BatchSize: 0, LR: 0.1}},
		{name: "bad lr", cfg: TrainConfig{Epochs: 1, BatchSize: 4, LR: 0}},
		{name: "bad momentum", cfg: TrainConfig{Epochs: 1, BatchSize: 4, LR: 0.1, Momentum: 1}},
		{name: "bad decay", cfg: TrainConfig{Epochs: 1, BatchSize: 4, LR: 0.1, WeightDecay: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(net, x, labels, tt.cfg, rng); err == nil {
				t.Error("invalid config did not error")
			}
		})
	}
	if _, err := Train(net, x, labels[:5], TrainConfig{Epochs: 1, BatchSize: 4, LR: 0.1}, rng); err == nil {
		t.Error("label/sample mismatch did not error")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits, _ := tensor.FromSlice(2, 3, []float64{10, 0, 0, 0, 10, 0})
	loss, grad, err := SoftmaxCrossEntropy(logits, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Errorf("confident correct predictions should have near-zero loss, got %v", loss)
	}
	// Gradient rows must sum to ~0 (softmax minus one-hot).
	for i := 0; i < grad.Rows; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-9 {
			t.Errorf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyErrors(t *testing.T) {
	logits, _ := tensor.FromSlice(1, 2, []float64{0, 0})
	if _, _, err := SoftmaxCrossEntropy(logits, []int{0, 1}); err == nil {
		t.Error("label count mismatch did not error")
	}
	if _, _, err := SoftmaxCrossEntropy(logits, []int{5}); err == nil {
		t.Error("out-of-range label did not error")
	}
}

// TestDenseGradientCheck verifies backprop against numerical gradients.
func TestDenseGradientCheck(t *testing.T) {
	rng := sim.NewRNG(11)
	net := mlp(t, rng, 3, 4, 2)
	x := tensor.Randn(5, 3, 1, rng)
	labels := []int{0, 1, 0, 1, 1}

	lossAt := func() float64 {
		logits := net.Forward(x, false)
		loss, _, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}

	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, grad, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	net.Backward(grad)

	const eps = 1e-5
	for pi, p := range net.Params() {
		for _, i := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossAt()
			p.W.Data[i] = orig - eps
			lm := lossAt()
			p.W.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("param %d idx %d: numeric grad %v vs analytic %v", pi, i, numeric, analytic)
			}
		}
	}
}

func TestResidualGradientCheck(t *testing.T) {
	rng := sim.NewRNG(13)
	res := NewResidualIn(nil, 4, rng)
	head := NewDenseIn(nil, 4, 2, rng)
	net, err := NewNetworkIn(nil, res, head)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(3, 4, 1, rng)
	labels := []int{0, 1, 0}

	lossAt := func() float64 {
		logits := net.Forward(x, false)
		loss, _, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}

	net.ZeroGrad()
	logits := net.Forward(x, true)
	_, grad, err := SoftmaxCrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	net.Backward(grad)

	const eps = 1e-5
	p := net.Params()[0] // first dense weight inside the residual
	for _, i := range []int{0, 7, len(p.W.Data) - 1} {
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		lp := lossAt()
		p.W.Data[i] = orig - eps
		lm := lossAt()
		p.W.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-p.Grad.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("residual idx %d: numeric %v vs analytic %v", i, numeric, p.Grad.Data[i])
		}
	}
}

func TestDropout(t *testing.T) {
	rng := sim.NewRNG(17)
	d, err := NewDropoutIn(nil, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(10, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	// Inference: identity.
	out := d.Forward(x, false)
	if !tensor.Equal(out, x, 0) {
		t.Error("dropout at inference is not the identity")
	}
	// Training: roughly half zeroed, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Errorf("dropout zeroed %d/1000, want ~500", zeros)
	}
	if zeros+twos != 1000 {
		t.Errorf("zeros+twos = %d, want 1000", zeros+twos)
	}
}

func TestDropoutRateValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, rate := range []float64{-0.1, 1, 1.5} {
		if _, err := NewDropoutIn(nil, rate, rng); err == nil {
			t.Errorf("rate %v did not error", rate)
		}
	}
}

func TestTanhBackward(t *testing.T) {
	rng := sim.NewRNG(23)
	tanh := NewTanhIn(nil)
	x := tensor.Randn(2, 3, 1, rng)
	out := tanh.Forward(x, true)
	for i, v := range out.Data {
		if math.Abs(v-math.Tanh(x.Data[i])) > 1e-12 {
			t.Fatalf("tanh forward mismatch at %d", i)
		}
	}
	grad := tensor.New(2, 3)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	back := tanh.Backward(grad)
	for i, y := range out.Data {
		want := 1 - y*y
		if math.Abs(back.Data[i]-want) > 1e-12 {
			t.Fatalf("tanh backward mismatch at %d: %v vs %v", i, back.Data[i], want)
		}
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	rng := sim.NewRNG(29)
	d := NewDenseIn(nil, 4, 4, rng)
	before := d.Params()[0].W.FrobeniusNorm()
	opt, err := NewSGD(0.1, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// No gradient, only decay: weights must shrink.
	for i := 0; i < 5; i++ {
		opt.Step(d.Params())
	}
	after := d.Params()[0].W.FrobeniusNorm()
	if after >= before {
		t.Errorf("weight decay did not shrink weights: %v -> %v", before, after)
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	rng := sim.NewRNG(31)
	net := mlp(t, rng, 2, 2)
	x := tensor.New(3, 2)
	if got := net.Accuracy(x, []int{0}); got != 0 {
		t.Errorf("mismatched labels should give 0, got %v", got)
	}
}

// TestReLUBitEqualsTheBranch: the masked ReLU computes, bit for bit —
// the sign of a zero included — what the branch it replaced computed:
// Forward max(0, x) with every non-positive entry (a NaN among them) a
// +0, Backward g where the input was positive and g·0 elsewhere, over
// random entries and over every pairing of the special values.
func TestReLUBitEqualsTheBranch(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1, -1}
	rng := sim.NewRNG(11)
	x, g := tensor.Randn(len(specials)+7, len(specials), 1, rng), tensor.Randn(len(specials)+7, len(specials), 1, rng)
	for i, xv := range specials {
		for j, gv := range specials {
			x.Set(i, j, xv)
			g.Set(i, j, gv)
		}
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	r := NewReLUIn(nil)
	out, dx := r.Forward(x, true), r.Backward(g)
	for i, v := range x.Data {
		wantOut, wantDx := 0.0, g.Data[i]*0
		if v > 0 {
			wantOut, wantDx = v, g.Data[i]
		}
		if !same(out.Data[i], wantOut) {
			t.Fatalf("Forward(%v) = %v, want %v", v, out.Data[i], wantOut)
		}
		if !same(dx.Data[i], wantDx) {
			t.Fatalf("Backward(%v) where the input was %v = %v, want %v", g.Data[i], v, dx.Data[i], wantDx)
		}
	}
}
