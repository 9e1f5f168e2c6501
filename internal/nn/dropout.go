package nn

import (
	"fmt"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Dropout randomly zeroes activations during training (inverted dropout:
// survivors are scaled by 1/(1-rate) so inference needs no rescaling).
// The object-detection workload family tunes this layer's rate, mirroring
// the paper's YOLO dropout hyperparameter.
type Dropout struct {
	rate float64
	rng  *sim.RNG

	mask, out, dx tensor.Matrix
}

// NewDropoutIn creates a dropout layer, its buffers taken from a (nil is
// the heap). Rate must be in [0, 1).
func NewDropoutIn(a *tensor.Arena, rate float64, rng *sim.RNG) (*Dropout, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate %v out of [0,1)", rate)
	}
	d := take[Dropout](a)
	*d = Dropout{rate: rate, rng: rng, mask: a.Buffer(), out: a.Buffer(), dx: a.Buffer()}
	return d, nil
}

// Forward applies the mask when training; it is the identity at inference.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.rate == 0 {
		return x
	}
	keep := 1 - d.rate
	d.mask.Resize(x.Rows, x.Cols)
	d.out.Resize(x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = 1 / keep
			d.out.Data[i] = v * (1 / keep)
		} else {
			d.mask.Data[i] = 0
			d.out.Data[i] = 0
		}
	}
	return &d.out
}

// Backward passes gradients through the same mask.
func (d *Dropout) Backward(grad *tensor.Matrix) *tensor.Matrix {
	if d.mask.Data == nil {
		return grad
	}
	d.dx.Resize(grad.Rows, grad.Cols)
	for i, g := range grad.Data {
		d.dx.Data[i] = g * d.mask.Data[i]
	}
	return &d.dx
}

// Params returns nil: dropout is parameter-free.
func (d *Dropout) Params() []*Param { return nil }
