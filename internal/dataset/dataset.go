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
// storage, which training only ever reads.
func (d *Dataset) Subset(frac float64) (*Dataset, error) {
	k, err := SubsetLen(d.Len(), frac)
	if err != nil {
		return nil, err
	}
	sub := &Dataset{
		Meta:    d.Meta,
		Classes: d.Classes,
		Vocab:   d.Vocab,
		Labels:  d.Labels[:k],
	}
	if d.X != nil {
		sub.X = d.X.RowSlice(0, k)
	}
	if d.Tokens != nil {
		sub.Tokens = d.Tokens[:k]
	}
	return sub, nil
}
