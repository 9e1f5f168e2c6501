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
	// skipInputGrad is set by NewNetwork on the first layer, whose input
	// gradient nobody reads.
	skipInputGrad bool

	lastInput *tensor.Matrix // cached for backward
	y, dx, dw tensor.Matrix  // owned output and gradient buffers
	db        []float64
}

// NewDense creates a dense layer with He-normal initialised weights.
func NewDense(in, out int, rng *sim.RNG) *Dense { return NewDenseIn(nil, in, out, rng) }

// NewDenseIn is NewDense with the layer's storage taken from a.
func NewDenseIn(a *tensor.Arena, in, out int, rng *sim.RNG) *Dense {
	std := math.Sqrt(2 / float64(in))
	return &Dense{
		in:  in,
		out: out,
		w:   newParam(a, a.Randn(in, out, std, rng)),
		b:   newParam(a, a.New(1, out)),
		y:   a.Buffer(),
		dx:  a.Buffer(),
		dw:  a.Buffer(),
		db:  a.Floats(out),
	}
}

// Forward computes x W + b, caching x when training.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		d.lastInput = x
	}
	tensor.MatMulInto(&d.y, x, d.w.W)
	d.y.AddRowVec(d.b.W.Data)
	return &d.y
}

// Backward accumulates dW = xᵀ grad and db = colsum(grad), returning
// grad W ᵀ for the upstream layer. dW and db are summed on their own
// before being added, so a non-zero Grad sees the same rounding as ever.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	d.w.Grad.Add(tensor.MatMulATInto(&d.dw, d.lastInput, grad))
	for i, v := range grad.ColSumsInto(d.db) {
		d.b.Grad.Data[i] += v
	}
	if d.skipInputGrad {
		return nil
	}
	return tensor.MatMulBTInto(&d.dx, grad, d.w.W)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// FLOPsPerSample counts the multiply-adds of one forward pass.
func (d *Dense) FLOPsPerSample() float64 { return 2 * float64(d.in) * float64(d.out) }

// OutDim reports the layer output width.
func (d *Dense) OutDim(int) int { return d.out }

// In reports the layer input width.
func (d *Dense) In() int { return d.in }
