package nn

import (
	"math"

	"edgetune/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	out, dx tensor.Matrix // out doubles as the backward mask: > 0 where the input was
}

// NewReLUIn returns a ReLU activation layer, its buffers taken from a
// (nil is the heap).
func NewReLUIn(a *tensor.Arena) *ReLU {
	r := take[ReLU](a)
	r.out, r.dx = a.Buffer(), a.Buffer()
	return r
}

// Forward applies max(0, x). Whether an entry is positive is as good as
// a coin toss, so it is a mask that decides, not a branch: an entry
// keeps all of its bits or none.
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	r.out.Resize(x.Rows, x.Cols)
	out := r.out.Data[:len(x.Data)]
	for i, v := range x.Data {
		var keep uint64
		if v > 0 {
			keep = ^uint64(0)
		}
		out[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
	return &r.out
}

// Backward zeroes gradients where the input was non-positive: by a
// product with 1 or with 0, which passes g through exactly or keeps the
// sign of its zero, as the branch it replaces did.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	r.dx.Resize(grad.Rows, grad.Cols)
	out, dx := r.out.Data[:len(grad.Data)], r.dx.Data[:len(grad.Data)]
	one := math.Float64bits(1)
	for i, g := range grad.Data {
		var keep uint64
		if out[i] > 0 {
			keep = ^uint64(0)
		}
		dx[i] = g * math.Float64frombits(one&keep)
	}
	return &r.dx
}

// Params returns nil: activations are parameter-free.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic tangent activation, used by the recurrent
// workload family.
type Tanh struct {
	out, dx tensor.Matrix // out is also what Backward differentiates through
}

// NewTanhIn returns a Tanh activation layer, its buffers taken from a
// (nil is the heap).
func NewTanhIn(a *tensor.Arena) *Tanh {
	t := take[Tanh](a)
	t.out, t.dx = a.Buffer(), a.Buffer()
	return t
}

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
