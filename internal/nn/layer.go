// Package nn is a from-scratch mini-batch SGD training library. It plays
// the role PyTorch plays in the original EdgeTune prototype: models are
// sequential stacks of layers trained with softmax cross-entropy. What a
// trial costs in simulated runtime and energy comes from the workload's
// paper-scale counts (workload.PaperCost), not from the network.
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
	p := take[Param](a)
	p.W, p.Grad = w, a.New(w.Rows, w.Cols)
	return p
}

// take returns a zero T from a (nil = the heap): where a layer built
// on an arena keeps its own value.
func take[T any](a *tensor.Arena) *T { return &tensor.Take[T](a, 1)[0] }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

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
// returns nil where no input gradient exists ((k, value) pair rows) or
// nobody reads it (see NewNetworkIn).
//
// What Params returns is read-only: a layer may hand out a slice it
// keeps, as Dense and Residual do, so that no call builds one.
//
// The constructors named …In build the layer out of a tensor.Arena —
// the layer value, weights, gradients and owned buffers alike — and the
// layer is then valid until that arena's next Reset; the ones without
// the suffix are the same constructors on the heap (a nil arena).
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}
