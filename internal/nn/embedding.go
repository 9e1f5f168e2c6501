package nn

import (
	"fmt"
	"math"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Embedding maps token-ID sequences to the mean of their embedding
// vectors. Inputs are matrices whose rows are samples and whose columns
// hold token IDs as floats (the representation the token datasets use);
// the output is one dense vector per sample. Gradients scatter back to
// the rows of the embedding table that were used.
type Embedding struct {
	vocab, dim int
	table      *Param

	lastTokens *tensor.Matrix
	out        tensor.Matrix
}

// NewEmbedding creates an embedding table of vocab rows and dim columns.
func NewEmbedding(vocab, dim int, rng *sim.RNG) (*Embedding, error) {
	if vocab < 1 || dim < 1 {
		return nil, fmt.Errorf("nn: embedding shape %dx%d invalid", vocab, dim)
	}
	std := 1 / math.Sqrt(float64(dim))
	return &Embedding{
		vocab: vocab,
		dim:   dim,
		table: newParam(nil, tensor.Randn(vocab, dim, std, rng)),
	}, nil
}

// Forward mean-pools the embeddings of each row's tokens. Token IDs
// outside [0, vocab) are ignored (treated as padding).
func (e *Embedding) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		e.lastTokens = x
	}
	out := e.out.Resize(x.Rows, e.dim)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		outRow := out.Row(i)
		for j := range outRow {
			outRow[j] = 0
		}
		count := 0
		for _, tok := range row {
			id := int(tok)
			if id < 0 || id >= e.vocab {
				continue
			}
			emb := e.table.W.Row(id)
			for j, v := range emb {
				outRow[j] += v
			}
			count++
		}
		if count > 0 {
			inv := 1 / float64(count)
			for j := range outRow {
				outRow[j] *= inv
			}
		}
	}
	return out
}

// Backward scatters the pooled gradient back to the used table rows.
// Token IDs are not differentiable, so there is no input gradient.
func (e *Embedding) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := 0; i < grad.Rows; i++ {
		tokens := e.lastTokens.Row(i)
		gRow := grad.Row(i)
		count := 0
		for _, tok := range tokens {
			if id := int(tok); id >= 0 && id < e.vocab {
				count++
			}
		}
		if count == 0 {
			continue
		}
		inv := 1 / float64(count)
		for _, tok := range tokens {
			id := int(tok)
			if id < 0 || id >= e.vocab {
				continue
			}
			gradRow := e.table.Grad.Row(id)
			for j, g := range gRow {
				gradRow[j] += g * inv
			}
		}
	}
	return nil
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.table} }

// FLOPsPerSample counts one add per token-dimension (mean pooling).
func (e *Embedding) FLOPsPerSample() float64 { return float64(e.dim) }

// OutDim is the embedding dimension.
func (e *Embedding) OutDim(int) int { return e.dim }
