package nn

import (
	"testing"

	"edgetune/internal/sim"
)

// BenchmarkMiniBatchStep times one full training step — forward,
// softmax cross-entropy, backward, SGD update — on a small MLP,
// reporting allocs/op. This is the same hot loop the profiling plane's
// "nn.minibatch-step" probe measures; a regression here shows up in
// both places.
func BenchmarkMiniBatchStep(b *testing.B) {
	rng := sim.NewRNG(1)
	x, labels := blobs(32, rng)
	var layers []Layer
	for _, dims := range [][2]int{{2, 64}, {64, 64}, {64, 2}} {
		layers = append(layers, NewDenseIn(nil, dims[0], dims[1], rng), NewReLUIn(nil))
	}
	net, err := NewNetworkIn(nil, layers[:len(layers)-1]...)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0.9, 0)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.TrainStep(opt, x, labels); err != nil {
			b.Fatal(err)
		}
	}
}
