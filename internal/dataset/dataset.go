// Package dataset provides the seeded synthetic datasets that stand in
// for the paper's four workload corpora (Table 1): CIFAR10, Speech
// Commands, AG News, and COCO. Each generator produces a learnable
// classification problem with the same modality structure and the same
// *relative* train/test sizes as the original corpus, scaled down by a
// constant factor so that real SGD training completes in milliseconds.
// The scale factor is retained in the metadata so the performance model
// can charge simulated time and energy as if the full-size corpus had
// been processed.
package dataset

import (
	"fmt"
	"sync"

	"edgetune/internal/tensor"
)

// Meta describes a dataset's provenance and its relation to the paper's
// full-size corpus.
type Meta struct {
	// ID is the paper's workload identifier: IC, SR, NLP, or OD.
	ID string
	// Corpus names the original dataset being emulated.
	Corpus string
	// PaperTrainFiles and PaperTestFiles are the sample counts from
	// Table 1 of the paper.
	PaperTrainFiles int
	PaperTestFiles  int
	// PaperSizeBytes is the corpus size from Table 1.
	PaperSizeBytes int64
	// Scale is the number of paper-scale samples each synthetic sample
	// represents. Simulated cost models multiply by this factor.
	Scale float64
}

// Dataset is a labelled classification dataset. Features are the dense
// rows of X, except in a token-sequence dataset (NLP) as generated: that
// holds its token sequences and a nil X, and the workload's stride
// hyperparameter decides how they are featurised.
type Dataset struct {
	Meta    Meta
	X       *tensor.Matrix
	Labels  []int
	Classes int

	// Tokens is non-nil only for token-sequence datasets (NLP).
	Tokens [][]uint8
	// Vocab is the vocabulary size for token datasets.
	Vocab int
}

// Split pairs a training set with a held-out evaluation set.
type Split struct {
	Train *Dataset
	Test  *Dataset
}

// released is the free list of splits whose owners are done with them,
// one list per workload ID: a generator regenerates into a released
// split of its workload instead of allocating the features, labels and
// tokens anew. Every split ever released is kept, so a list is bounded
// by the most jobs of its workload that ever ran at once; a split is
// taken by one generator call and owned by nobody while it is listed.
var released struct {
	mu   sync.Mutex
	free map[string][]Split
}

// Release hands s's storage to the next generator call for its
// workload, which overwrites it. Nothing may read s, or any Subset of
// it, afterwards. Releasing the zero Split does nothing.
func Release(s Split) {
	if s.Train == nil || s.Test == nil {
		return
	}
	released.mu.Lock()
	defer released.mu.Unlock()
	if released.free == nil {
		released.free = make(map[string][]Split)
	}
	id := s.Train.Meta.ID
	released.free[id] = append(released.free[id], s)
}

// reuse takes a released split of the workload off the free list, or
// returns the zero Split when there is none.
func reuse(id string) Split {
	released.mu.Lock()
	defer released.mu.Unlock()
	free := released.free[id]
	if len(free) == 0 {
		return Split{}
	}
	s := free[len(free)-1]
	free[len(free)-1] = Split{}
	released.free[id] = free[:len(free)-1]
	return s
}

// features returns the n×cols matrix a generator writes every element
// of: d's, when d is a released dataset of that shape, else a new one.
func (d *Dataset) features(n, cols int) *tensor.Matrix {
	if d != nil && d.X != nil && d.X.Rows == n && d.X.Cols == cols {
		return d.X
	}
	return tensor.New(n, cols)
}

// labels returns the n labels a generator writes every one of: d's,
// when d is a released dataset of that length, else new ones.
func (d *Dataset) labels(n int) []int {
	if d != nil && len(d.Labels) == n {
		return d.Labels
	}
	return make([]int, n)
}

// tokens returns the n sequences of seqLen tokens a generator writes
// every token of: d's, when d is a released dataset of that shape, else
// new ones cut from one block, each capped at its own end so that an
// append moves it instead of reaching its neighbour.
func (d *Dataset) tokens(n, seqLen int) [][]uint8 {
	if d != nil && len(d.Tokens) == n && (n == 0 || len(d.Tokens[0]) == seqLen) {
		return d.Tokens
	}
	out, block := make([][]uint8, n), make([]uint8, n*seqLen)
	for i := range out {
		out[i] = block[i*seqLen : (i+1)*seqLen : (i+1)*seqLen]
	}
	return out
}

// Len returns the number of samples.
func (d *Dataset) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Labels)
}

// PaperSamples returns the paper-scale sample count this dataset
// represents (Len × Scale).
func (d *Dataset) PaperSamples() float64 {
	return float64(d.Len()) * d.Meta.Scale
}

// SubsetLen is the number of samples Subset(frac) keeps of n:
// ceil(frac·n), at least one.
func SubsetLen(n int, frac float64) (int, error) {
	if frac <= 0 || frac > 1 {
		return 0, fmt.Errorf("dataset: fraction %v out of (0,1]", frac)
	}
	k := int(frac*float64(n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k, nil
}

// Subset returns a dataset containing the first ceil(frac·n) samples.
// Generators pre-shuffle samples, so a prefix is an unbiased subsample;
// using a deterministic prefix keeps budget growth monotone: a larger
// budget strictly contains a smaller one, as in the paper's
// dataset-fraction budgets. The subset is a view: it shares d's
// storage, which training only ever reads, and its Dataset and Matrix
// headers come from a (tensor.Take), so on an arena it is valid until
// a's next Reset; a nil a is the heap.
func (d *Dataset) Subset(a *tensor.Arena, frac float64) (*Dataset, error) {
	k, err := SubsetLen(d.Len(), frac)
	if err != nil {
		return nil, err
	}
	sub := &tensor.Take[Dataset](a, 1)[0]
	*sub = Dataset{
		Meta:    d.Meta,
		Classes: d.Classes,
		Vocab:   d.Vocab,
		Labels:  d.Labels[:k],
	}
	if d.X != nil {
		sub.X = d.X.RowSlice(a, 0, k)
	}
	if d.Tokens != nil {
		sub.Tokens = d.Tokens[:k]
	}
	return sub, nil
}
