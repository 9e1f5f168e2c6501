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

// SimpleRNN is an Elman recurrent cell unrolled over fixed-length
// token sequences: h_t = tanh(E[x_t]·Wx + h_{t-1}·Wh + b). The final
// hidden state is the layer output. Inputs are token-ID matrices as in
// Embedding; backpropagation runs through time across all steps.
type SimpleRNN struct {
	vocab, hidden int
	embed         *Param // vocab x hidden token embeddings
	wh            *Param // hidden x hidden recurrence
	bias          *Param // 1 x hidden

	lastTokens *tensor.Matrix
	states     []tensor.Matrix // h_0 .. h_T (post-tanh), reused across batches

	dh, dpre, dwh tensor.Matrix // backward buffers
	db            []float64
}

// NewSimpleRNN creates a recurrent layer over a vocab with the given
// hidden width.
func NewSimpleRNN(vocab, hidden int, rng *sim.RNG) (*SimpleRNN, error) {
	if vocab < 1 || hidden < 1 {
		return nil, fmt.Errorf("nn: rnn shape %dx%d invalid", vocab, hidden)
	}
	return &SimpleRNN{
		vocab:  vocab,
		hidden: hidden,
		embed:  newParam(nil, tensor.Randn(vocab, hidden, 1/math.Sqrt(float64(hidden)), rng)),
		wh:     newParam(nil, tensor.Randn(hidden, hidden, 0.5/math.Sqrt(float64(hidden)), rng)),
		bias:   newParam(nil, tensor.New(1, hidden)),
		db:     make([]float64, hidden),
	}, nil
}

// Forward unrolls the cell over the sequence columns.
func (r *SimpleRNN) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	n, steps := x.Rows, x.Cols
	if train {
		r.lastTokens = x
	}
	if len(r.states) < steps+1 {
		r.states = append(r.states, make([]tensor.Matrix, steps+1-len(r.states))...)
	}
	h := r.states[0].Resize(n, r.hidden) // h_0 = 0: nothing ever writes this one
	for t := 0; t < steps; t++ {
		next := tensor.MatMulInto(&r.states[t+1], h, r.wh.W)
		next.AddRowVec(r.bias.W.Data)
		for i := 0; i < n; i++ {
			id := int(x.At(i, t))
			if id < 0 || id >= r.vocab {
				continue
			}
			emb := r.embed.W.Row(id)
			row := next.Row(i)
			for j, v := range emb {
				row[j] += v
			}
		}
		next.Apply(math.Tanh)
		h = next
	}
	return h
}

// Backward runs truncated-free BPTT over the whole sequence.
func (r *SimpleRNN) Backward(grad *tensor.Matrix) *tensor.Matrix {
	n := grad.Rows
	steps := r.lastTokens.Cols
	dh := grad
	for t := steps - 1; t >= 0; t-- {
		// Through tanh: dpre = dh * (1 - h²).
		dpre := r.dpre.Resize(n, r.hidden)
		for i, v := range r.states[t+1].Data {
			dpre.Data[i] = dh.Data[i] * (1 - v*v)
		}
		// Bias and embedding gradients.
		for j, v := range dpre.ColSumsInto(r.db) {
			r.bias.Grad.Data[j] += v
		}
		for i := 0; i < n; i++ {
			id := int(r.lastTokens.At(i, t))
			if id < 0 || id >= r.vocab {
				continue
			}
			eg := r.embed.Grad.Row(id)
			for j, g := range dpre.Row(i) {
				eg[j] += g
			}
		}
		// Recurrence: dWh += h_{t-1}ᵀ dpre; dh_{t-1} = dpre Whᵀ, which
		// nobody reads at t = 0.
		r.wh.Grad.Add(tensor.MatMulATInto(&r.dwh, &r.states[t], dpre))
		if t > 0 {
			dh = tensor.MatMulBTInto(&r.dh, dpre, r.wh.W)
		}
	}
	return nil
}

// Params returns the embedding table, recurrence matrix, and bias.
func (r *SimpleRNN) Params() []*Param { return []*Param{r.embed, r.wh, r.bias} }

// FLOPsPerSample counts the recurrence matmul per step over a nominal
// sequence; reported per token-step times a typical length is the
// workload layer's job, so this returns the per-step cost.
func (r *SimpleRNN) FLOPsPerSample() float64 {
	return 2 * float64(r.hidden) * float64(r.hidden)
}

// OutDim is the hidden width.
func (r *SimpleRNN) OutDim(int) int { return r.hidden }
