package nn

import (
	"errors"

	"edgetune/internal/tensor"
)

// Network is a sequential stack of layers with a softmax classification
// head. The zero value is not usable; construct with NewNetwork.
//
// A Network is single-goroutine: its layers own the activation and
// gradient buffers they return and reuse them on every call, so the
// logits Forward returns are valid only until the next Forward. One
// built with NewNetworkIn is, like its layers, valid until the arena's
// next Reset.
type Network struct {
	layers []Layer
	params []*Param // every layer's parameters, collected once
	// arena is where the network's own buffers, and what Train needs
	// around it, come from; nil is the heap.
	arena *tensor.Arena

	lossGrad tensor.Matrix // TrainStep's loss-gradient buffer
	pred     []int         // Predict's result
	chunk    tensor.Matrix // Predict's view of the rows it is forwarding
	// trained records that the latest Forward was a training one, i.e.
	// that the activations the layers cached for Backward are intact.
	trained bool
}

// NewNetwork builds a sequential network from layers. At least one layer
// is required. A Dense first layer is told to skip its input gradient:
// Backward discards it, and it is the widest product of the step.
func NewNetwork(layers ...Layer) (*Network, error) { return NewNetworkIn(nil, layers...) }

// NewNetworkIn is NewNetwork with the network's buffers, and the
// optimiser state, batch and sample order of a Train on it, taken from
// a — the arena its layers were built in.
func NewNetworkIn(a *tensor.Arena, layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, errors.New("nn: network needs at least one layer")
	}
	if d, ok := layers[0].(*Dense); ok {
		d.skipInputGrad = true
	}
	n := &Network{layers: layers, arena: a, lossGrad: a.Buffer()}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	return n, nil
}

// Forward runs the full stack and returns the logits.
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	n.trained = train
	h := x
	for _, l := range n.layers {
		h = l.Forward(h, train)
	}
	return h
}

// Backward runs the stack in reverse from the loss gradient. It panics
// unless the latest Forward was a training one: an inference Forward in
// between (Predict, Accuracy) has overwritten the cached activations.
func (n *Network) Backward(grad *tensor.Matrix) {
	if !n.trained {
		panic("nn: Backward without a training Forward directly before it")
	}
	g := grad
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g)
	}
}

// TrainStep runs one optimiser step on the batch (x, labels) — zero the
// gradients, forward, softmax cross-entropy, backward, update — and
// returns the batch loss. It is the step Train loops over, and allocates
// nothing once the buffers have grown to the batch's size.
func (n *Network) TrainStep(opt *SGD, x *tensor.Matrix, labels []int) (float64, error) {
	n.ZeroGrad()
	loss, err := softmaxCrossEntropyInto(&n.lossGrad, n.Forward(x, true), labels)
	if err != nil {
		return 0, err
	}
	n.Backward(&n.lossGrad)
	opt.Step(n.params)
	return loss, nil
}

// Params returns every trainable parameter in the network. The slice is
// the network's own; callers must not modify it.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters, used by the
// performance model for memory accounting.
func (n *Network) ParamCount() int {
	var c int
	for _, p := range n.params {
		c += p.Count()
	}
	return c
}

// FLOPsPerSample returns the forward-pass FLOPs of the whole network for
// a single sample. The performance model charges backward passes at 2x.
func (n *Network) FLOPsPerSample() float64 {
	var f float64
	for _, l := range n.layers {
		f += l.FLOPsPerSample()
	}
	return f
}

// evalChunk is how many rows Predict forwards at a time: the smallest
// training batch the tuner uses (§5.1), so evaluating a whole test set
// never grows the layers' buffers beyond what training needed. Rows are
// independent, so chunking changes no logit.
const evalChunk = 32

// Predict returns the class index with the highest logit for each row.
// The slice is the network's own and valid until the next Predict.
func (n *Network) Predict(x *tensor.Matrix) []int {
	if cap(n.pred) < x.Rows {
		n.pred = n.arena.Ints(x.Rows)
	}
	pred := n.pred[:x.Rows]
	for lo := 0; lo < x.Rows; lo += evalChunk {
		hi := min(lo+evalChunk, x.Rows)
		n.chunk.Rows, n.chunk.Cols, n.chunk.Data = hi-lo, x.Cols, x.Data[lo*x.Cols:hi*x.Cols]
		n.Forward(&n.chunk, false).ArgmaxRowsInto(pred[lo:hi])
	}
	return pred
}

// Accuracy evaluates classification accuracy on (x, labels).
func (n *Network) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows == 0 || len(labels) != x.Rows {
		return 0
	}
	pred := n.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Layers exposes the layer slice for inspection (read-only use).
func (n *Network) Layers() []Layer { return n.layers }
