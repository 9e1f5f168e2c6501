package nn

import (
	"math"
	"testing"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

func TestNewEmbeddingValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := NewEmbedding(0, 4, rng); err == nil {
		t.Error("zero vocab accepted")
	}
	if _, err := NewEmbedding(4, 0, rng); err == nil {
		t.Error("zero dim accepted")
	}
	e, err := NewEmbedding(10, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if e.OutDim(0) != 6 || e.FLOPsPerSample() != 6 || len(e.Params()) != 1 {
		t.Error("embedding metadata wrong")
	}
}

func TestEmbeddingForwardMeanPools(t *testing.T) {
	rng := sim.NewRNG(2)
	e, err := NewEmbedding(5, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// One sample with tokens 1 and 3.
	x, _ := tensor.FromSlice(1, 2, []float64{1, 3})
	out := e.Forward(x, false)
	for j := 0; j < 3; j++ {
		want := (e.table.W.At(1, j) + e.table.W.At(3, j)) / 2
		if math.Abs(out.At(0, j)-want) > 1e-12 {
			t.Errorf("dim %d = %v, want %v", j, out.At(0, j), want)
		}
	}
}

func TestEmbeddingIgnoresOutOfVocab(t *testing.T) {
	rng := sim.NewRNG(3)
	e, err := NewEmbedding(5, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := tensor.FromSlice(1, 3, []float64{2, -1, 99})
	out := e.Forward(x, false)
	for j := 0; j < 3; j++ {
		if out.At(0, j) != e.table.W.At(2, j) {
			t.Errorf("padding tokens altered the pooled embedding")
		}
	}
}

func TestEmbeddingGradientCheck(t *testing.T) {
	rng := sim.NewRNG(5)
	e, err := NewEmbedding(6, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	head := NewDense(4, 2, rng)
	net, err := NewNetwork(e, head)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := tensor.FromSlice(3, 4, []float64{0, 1, 2, 3, 1, 1, 4, 5, 2, 0, 5, 3})
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
	p := e.table
	for _, i := range []int{0, 5, 13, len(p.W.Data) - 1} {
		orig := p.W.Data[i]
		p.W.Data[i] = orig + eps
		lp := lossAt()
		p.W.Data[i] = orig - eps
		lm := lossAt()
		p.W.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-p.Grad.Data[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("embedding idx %d: numeric %v vs analytic %v", i, numeric, p.Grad.Data[i])
		}
	}
}

func TestEmbeddingTrainsBagTask(t *testing.T) {
	rng := sim.NewRNG(13)
	const (
		vocab = 8
		seq   = 5
		n     = 200
	)
	x := tensor.New(n, seq)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < seq; j++ {
			// Class 0 draws from the low half of the vocab, class 1
			// from the high half, with some overlap noise.
			base := cls * vocab / 2
			x.Set(i, j, float64(base+rng.Intn(vocab/2)))
		}
	}
	emb, err := NewEmbedding(vocab, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(emb, NewReLU(), NewDense(8, 2, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(net, x, labels, TrainConfig{
		Epochs: 30, BatchSize: 16, LR: 0.1, Momentum: 0.9, Shuffle: true,
	}, rng); err != nil {
		t.Fatal(err)
	}
	if acc := net.Accuracy(x, labels); acc < 0.95 {
		t.Errorf("embedding accuracy %.3f, want >= 0.95", acc)
	}
}
