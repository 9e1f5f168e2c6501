// Package nn is a from-scratch mini-batch SGD training library. It plays
// the role PyTorch plays in the original EdgeTune prototype: models are
// sequential stacks of layers trained with softmax cross-entropy, and
// every layer reports its parameter and FLOP counts so the performance
// model can charge simulated runtime and energy for training and
// inference.
package nn

import "edgetune/internal/tensor"

// Param is a trainable parameter tensor with its gradient accumulator.
type Param struct {
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// newParam wraps a weight matrix with a zeroed gradient of the same
// shape from a (nil = the heap).
func newParam(a *tensor.Arena, w *tensor.Matrix) *Param {
	return &Param{W: w, Grad: a.New(w.Rows, w.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Count returns the number of scalar parameters.
func (p *Param) Count() int { return len(p.W.Data) }

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch (rows = samples) and returns the activation.
// Backward consumes the gradient of the loss w.r.t. this layer's output
// and returns the gradient w.r.t. its input, accumulating parameter
// gradients along the way. Backward must be called after Forward with
// train=true on the same batch.
//
// A layer owns the matrices it returns and reuses them: a result is
// valid until the layer's next Forward (or Backward), and what Backward
// needs is cached by reference, so a layer never writes to its input
// and a Forward in between invalidates the pending Backward. Backward
// returns nil where no input gradient exists (token IDs) or nobody
// reads it (see NewNetwork).
//
// The constructors named …In build the layer out of a tensor.Arena —
// weights, gradients and the owned buffers alike — and the layer is
// then valid until that arena's next Reset; the ones without the
// suffix are the same constructors on the heap (a nil arena).
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	// FLOPsPerSample estimates the forward-pass floating point operations
	// for a single input sample; the backward pass is charged at 2x by
	// convention (one pass for activation gradients, one for weights).
	FLOPsPerSample() float64
	// OutDim reports the layer's output width given its input width.
	OutDim(inDim int) int
}
