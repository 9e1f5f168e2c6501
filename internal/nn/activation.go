package nn

import (
	"math"

	"edgetune/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	out, dx tensor.Matrix // out doubles as the backward mask: > 0 where the input was
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return NewReLUIn(nil) }

// NewReLUIn is NewReLU with the layer's buffers taken from a.
func NewReLUIn(a *tensor.Arena) *ReLU { return &ReLU{out: a.Buffer(), dx: a.Buffer()} }

// Forward applies max(0, x).
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	r.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			r.out.Data[i] = v
		} else {
			r.out.Data[i] = 0
		}
	}
	return &r.out
}

// Backward zeroes gradients where the input was non-positive.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	r.dx.Resize(grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		if r.out.Data[i] > 0 {
			r.dx.Data[i] = g
		} else {
			r.dx.Data[i] = g * 0 // a product, as ever: keeps the zero's sign
		}
	}
	return &r.dx
}

// Params returns nil: activations are parameter-free.
func (r *ReLU) Params() []*Param { return nil }

// FLOPsPerSample is negligible for element-wise ops; charged as zero.
func (r *ReLU) FLOPsPerSample() float64 { return 0 }

// OutDim preserves the input width.
func (r *ReLU) OutDim(inDim int) int { return inDim }

// Tanh is the hyperbolic tangent activation, used by the recurrent
// workload family.
type Tanh struct {
	out, dx tensor.Matrix // out is also what Backward differentiates through
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return NewTanhIn(nil) }

// NewTanhIn is NewTanh with the layer's buffers taken from a.
func NewTanhIn(a *tensor.Arena) *Tanh { return &Tanh{out: a.Buffer(), dx: a.Buffer()} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	t.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		t.out.Data[i] = math.Tanh(v)
	}
	return &t.out
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(grad *tensor.Matrix) *tensor.Matrix {
	t.dx.Resize(grad.Rows, grad.Cols)
	for i, y := range t.out.Data {
		t.dx.Data[i] = grad.Data[i] * (1 - y*y)
	}
	return &t.dx
}

// Params returns nil: activations are parameter-free.
func (t *Tanh) Params() []*Param { return nil }

// FLOPsPerSample is negligible for element-wise ops; charged as zero.
func (t *Tanh) FLOPsPerSample() float64 { return 0 }

// OutDim preserves the input width.
func (t *Tanh) OutDim(inDim int) int { return inDim }
