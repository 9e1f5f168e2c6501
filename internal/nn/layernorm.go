package nn

import (
	"math"

	"edgetune/internal/tensor"
)

// LayerNorm normalises each sample's activations to zero mean and unit
// variance, then applies a learned affine transform (gain γ, bias β).
// Deep residual stacks train more stably with normalisation; the
// workload families keep it optional so the calibrated learning curves
// stay unchanged, but it is part of the training substrate's public
// surface.
type LayerNorm struct {
	dim   int
	gamma *Param
	beta  *Param

	// cached forward state for backward
	normed tensor.Matrix
	invStd []float64

	out, dx tensor.Matrix
	dxhat   []float64
}

// NewLayerNorm creates a layer-normalisation layer of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	gamma := tensor.New(1, dim)
	for i := range gamma.Data {
		gamma.Data[i] = 1
	}
	return &LayerNorm{
		dim:   dim,
		gamma: newParam(nil, gamma),
		beta:  newParam(nil, tensor.New(1, dim)),
		dxhat: make([]float64, dim),
	}
}

const lnEps = 1e-5

// Forward normalises each row and applies γ·x̂ + β.
func (l *LayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := l.out.Resize(x.Rows, x.Cols)
	if train {
		l.normed.Resize(x.Rows, x.Cols)
		if cap(l.invStd) < x.Rows {
			l.invStd = make([]float64, x.Rows)
		}
		l.invStd = l.invStd[:x.Rows]
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		var variance float64
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= float64(len(row))
		invStd := 1 / math.Sqrt(variance+lnEps)

		outRow := out.Row(i)
		for j, v := range row {
			n := (v - mean) * invStd
			if train {
				l.normed.Set(i, j, n)
			}
			outRow[j] = l.gamma.W.Data[j]*n + l.beta.W.Data[j]
		}
		if train {
			l.invStd[i] = invStd
		}
	}
	return out
}

// Backward propagates through the normalisation (full Jacobian) and
// accumulates γ/β gradients.
func (l *LayerNorm) Backward(grad *tensor.Matrix) *tensor.Matrix {
	out := l.dx.Resize(grad.Rows, grad.Cols)
	n := float64(l.dim)
	dxhat := l.dxhat
	for i := 0; i < grad.Rows; i++ {
		gRow := grad.Row(i)
		nRow := l.normed.Row(i)
		// dL/dx̂ = dL/dy · γ, plus γ/β gradient accumulation.
		var sumDxhat, sumDxhatN float64
		for j, g := range gRow {
			l.gamma.Grad.Data[j] += g * nRow[j]
			l.beta.Grad.Data[j] += g
			d := g * l.gamma.W.Data[j]
			dxhat[j] = d
			sumDxhat += d
			sumDxhatN += d * nRow[j]
		}
		outRow := out.Row(i)
		for j := range outRow {
			outRow[j] = l.invStd[i] / n * (n*dxhat[j] - sumDxhat - nRow[j]*sumDxhatN)
		}
	}
	return out
}

// Params returns the gain and bias parameters.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }

// FLOPsPerSample counts the normalisation arithmetic (~5 ops/element).
func (l *LayerNorm) FLOPsPerSample() float64 { return 5 * float64(l.dim) }

// OutDim preserves the input width.
func (l *LayerNorm) OutDim(inDim int) int { return inDim }
