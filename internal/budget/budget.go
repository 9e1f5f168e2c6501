// Package budget implements the training-trial budget of §2.2/§4.3 of
// the paper: the multi-budget rule (Algorithm 2) that grows epochs and
// dataset fraction simultaneously and proportionally to the iteration,
// with independent caps. The epoch-based and dataset-based budgets are
// its degenerate rows: an epoch budget's fraction starts at 1, a dataset
// budget's epoch cap is 1.
package budget

import "fmt"

// Allocation is the concrete budget handed to one training trial.
type Allocation struct {
	// Epochs is the number of passes over the selected data.
	Epochs int
	// DataFraction is the portion of the training set used, in (0, 1].
	DataFraction float64
}

// Cost is the work an allocation implies, in units of full-dataset
// epochs (epochs × fraction). It drives simulated trial runtime.
func (a Allocation) Cost() float64 {
	return float64(a.Epochs) * a.DataFraction
}

// Strategy maps a successive-halving iteration level (1-based rung
// index) to a trial budget by Algorithm 2: both dimensions grow with the
// iteration, each capped independently; once one saturates, the other
// keeps growing until both reach their limits.
type Strategy struct {
	minEpochs, maxEpochs int
	minFrac              float64
}

// At returns the allocation for iteration it (clamped to >= 1).
func (s Strategy) At(it int) Allocation {
	it = max(it, 1)
	return Allocation{
		Epochs:       min(s.minEpochs*it, s.maxEpochs),
		DataFraction: min(s.minFrac*float64(it), 1),
	}
}

// Max is the allocation the strategy levels off at: every dimension at
// its cap.
func (s Strategy) Max() Allocation {
	return Allocation{Epochs: s.maxEpochs, DataFraction: 1}
}

// Strategy names accepted by New.
const (
	KindEpochs  = "epochs"
	KindDataset = "dataset"
	KindMulti   = "multi"
)

// New returns the named strategy with the paper's parameters (the
// running example of §4.3: minimum 2 epochs, maximum 10, a 10% minimum
// dataset fraction). The empty name selects multi-budget, EdgeTune's
// default.
func New(kind string) (Strategy, error) {
	switch kind {
	case KindEpochs:
		return Strategy{minEpochs: 2, maxEpochs: 10, minFrac: 1}, nil
	case KindDataset:
		return Strategy{minEpochs: 1, maxEpochs: 1, minFrac: 0.1}, nil
	case KindMulti, "":
		return Strategy{minEpochs: 2, maxEpochs: 10, minFrac: 0.1}, nil
	default:
		return Strategy{}, fmt.Errorf("budget: unknown strategy %q", kind)
	}
}
