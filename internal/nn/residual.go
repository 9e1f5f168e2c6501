package nn

import (
	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Residual is a two-layer bottleneck block with an identity skip
// connection: y = x + W₂·relu(W₁·x). The image-classification workload
// family stacks these blocks to emulate the paper's ResNet-18/34/50 depth
// hyperparameter: deeper stacks have more parameters and FLOPs and fit
// the synthetic data better, at higher simulated cost.
type Residual struct {
	dim    int
	d1, d2 *Dense
	relu   *ReLU
}

// NewResidual creates a residual block of width dim. The second dense
// layer is initialised near zero (the "zero-gamma" trick) so that deep
// stacks start close to the identity and train stably.
func NewResidual(dim int, rng *sim.RNG) *Residual { return NewResidualIn(nil, dim, rng) }

// NewResidualIn is NewResidual with the block's storage taken from a.
func NewResidualIn(a *tensor.Arena, dim int, rng *sim.RNG) *Residual {
	d2 := NewDenseIn(a, dim, dim, rng)
	d2.w.W.Scale(0.1)
	return &Residual{
		dim:  dim,
		d1:   NewDenseIn(a, dim, dim, rng),
		d2:   d2,
		relu: NewReLUIn(a),
	}
}

// Forward computes the residual transform.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	h := r.d1.Forward(x, train)
	h = r.relu.Forward(h, train)
	h = r.d2.Forward(h, train)
	h.Add(x) // identity skip
	return h
}

// Backward propagates through both the transform path and the skip path.
func (r *Residual) Backward(grad *tensor.Matrix) *tensor.Matrix {
	g := r.d2.Backward(grad)
	g = r.relu.Backward(g)
	g = r.d1.Backward(g)
	g.Add(grad) // gradient of the identity skip
	return g
}

// Params returns the parameters of both dense sublayers.
func (r *Residual) Params() []*Param {
	return append(r.d1.Params(), r.d2.Params()...)
}

// FLOPsPerSample sums the two dense sublayers.
func (r *Residual) FLOPsPerSample() float64 {
	return r.d1.FLOPsPerSample() + r.d2.FLOPsPerSample()
}

// OutDim preserves the input width (skip connection requires it).
func (r *Residual) OutDim(int) int { return r.dim }
