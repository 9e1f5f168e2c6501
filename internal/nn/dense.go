package nn

import (
	"math"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Dense is a fully connected layer: y = x W + b.
type Dense struct {
	in, out int
	w, b    *Param
	params  [2]*Param // w, b: what Params returns
	// skipInputGrad is set by NewNetworkIn on the first layer, whose input
	// gradient nobody reads.
	skipInputGrad bool
	// pairs says the input rows are (k, value) pairs: set by
	// NewPairsDenseIn.
	pairs bool

	lastInput *tensor.Matrix // cached for backward
	y, dx, dw tensor.Matrix  // owned output and gradient buffers
	db        []float64
}

// NewDenseIn creates a dense layer with He-normal initialised weights,
// its storage taken from a (nil is the heap).
func NewDenseIn(a *tensor.Arena, in, out int, rng *sim.RNG) *Dense {
	std := math.Sqrt(2 / float64(in))
	d := take[Dense](a)
	*d = Dense{
		in:  in,
		out: out,
		w:   newParam(a, a.Randn(in, out, std, rng)),
		b:   newParam(a, a.New(1, out)),
		y:   a.Buffer(),
		dx:  a.Buffer(),
		dw:  a.Buffer(),
		db:  a.Floats(out),
	}
	d.params = [2]*Param{d.w, d.b}
	return d
}

// NewPairsDenseIn is NewDenseIn for a layer whose input rows come as the
// (k, value) pairs of their non-zero entries (tensor.PairsMatMulInto)
// instead of as in-wide rows: what a step reads of a row is then its
// pairs. The input has no gradient, so the layer computes none.
func NewPairsDenseIn(a *tensor.Arena, in, out int, rng *sim.RNG) *Dense {
	d := NewDenseIn(a, in, out, rng)
	d.pairs, d.skipInputGrad = true, true
	return d
}

// Forward computes x W + b, caching x when training.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		d.lastInput = x
	}
	if d.pairs {
		tensor.PairsMatMulInto(&d.y, x, d.w.W)
	} else {
		tensor.MatMulInto(&d.y, x, d.w.W)
	}
	d.y.AddRowVec(d.b.W.Data)
	return &d.y
}

// Backward accumulates dW = xᵀ grad and db = colsum(grad), returning
// grad W ᵀ for the upstream layer. dW and db are summed on their own
// before being added, so a non-zero Grad sees the same rounding as ever.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if d.pairs {
		d.w.Grad.Add(tensor.PairsMatMulATInto(&d.dw, d.lastInput, grad, d.in))
	} else {
		d.w.Grad.Add(tensor.MatMulATInto(&d.dw, d.lastInput, grad))
	}
	for i, v := range grad.ColSumsInto(d.db) {
		d.b.Grad.Data[i] += v
	}
	if d.skipInputGrad {
		return nil
	}
	return tensor.MatMulBTInto(&d.dx, grad, d.w.W)
}

// Params returns the weight and bias parameters, in the layer's own
// slice: read-only.
func (d *Dense) Params() []*Param { return d.params[:] }

// OutDim reports the layer output width.
func (d *Dense) OutDim(int) int { return d.out }

// In reports the layer input width.
func (d *Dense) In() int { return d.in }
