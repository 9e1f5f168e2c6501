// Package budget implements the training-trial budget strategies of
// §2.2/§4.3 of the paper: epoch-based, dataset-based, and the novel
// multi-budget (Algorithm 2) that grows both dimensions simultaneously
// and proportionally to the iteration, with independent caps.
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
// index) to a trial budget.
type Strategy interface {
	// Name identifies the strategy: "epochs", "dataset", or "multi".
	Name() string
	// At returns the allocation for iteration it >= 1.
	At(it int) Allocation
	// Saturated reports whether every dimension has reached its cap at
	// iteration it (growing further changes nothing).
	Saturated(it int) bool
}

// --- Epoch-based ----------------------------------------------------------

// EpochStrategy uses the full dataset in every trial and grows only the
// number of epochs: epochs = min(minEpochs·it, maxEpochs).
type EpochStrategy struct {
	minEpochs, maxEpochs int
}

// NewEpoch creates an epoch-based budget.
func NewEpoch(minEpochs, maxEpochs int) (*EpochStrategy, error) {
	if minEpochs < 1 || maxEpochs < minEpochs {
		return nil, fmt.Errorf("budget: invalid epoch range [%d, %d]", minEpochs, maxEpochs)
	}
	return &EpochStrategy{minEpochs: minEpochs, maxEpochs: maxEpochs}, nil
}

// Name returns "epochs".
func (e *EpochStrategy) Name() string { return "epochs" }

// At grows epochs linearly with the iteration, on the full dataset.
func (e *EpochStrategy) At(it int) Allocation {
	if it < 1 {
		it = 1
	}
	return Allocation{Epochs: min(e.minEpochs*it, e.maxEpochs), DataFraction: 1}
}

// Saturated reports whether the epoch cap is reached.
func (e *EpochStrategy) Saturated(it int) bool {
	return e.At(it).Epochs >= e.maxEpochs
}

// --- Dataset-based --------------------------------------------------------

// DatasetStrategy runs a single epoch per trial and grows only the data
// fraction: frac = min(minFrac·it, 1).
type DatasetStrategy struct {
	minFrac float64
}

// NewDataset creates a dataset-fraction budget.
func NewDataset(minFrac float64) (*DatasetStrategy, error) {
	if minFrac <= 0 || minFrac > 1 {
		return nil, fmt.Errorf("budget: invalid min fraction %v", minFrac)
	}
	return &DatasetStrategy{minFrac: minFrac}, nil
}

// Name returns "dataset".
func (d *DatasetStrategy) Name() string { return "dataset" }

// At grows the dataset fraction linearly, always one epoch.
func (d *DatasetStrategy) At(it int) Allocation {
	if it < 1 {
		it = 1
	}
	return Allocation{Epochs: 1, DataFraction: min(d.minFrac*float64(it), 1)}
}

// Saturated reports whether the full dataset is reached.
func (d *DatasetStrategy) Saturated(it int) bool {
	return d.At(it).DataFraction >= 1
}

// --- Multi-budget (Algorithm 2) -------------------------------------------

// MultiStrategy grows epochs and dataset fraction simultaneously and
// proportionally to the iteration, each capped independently; once one
// dimension saturates, the other keeps growing until both reach their
// limits (Algorithm 2 of the paper).
type MultiStrategy struct {
	minEpochs, maxEpochs int
	minFrac              float64
}

// NewMulti creates a multi-budget strategy.
func NewMulti(minEpochs, maxEpochs int, minFrac float64) (*MultiStrategy, error) {
	if minEpochs < 1 || maxEpochs < minEpochs {
		return nil, fmt.Errorf("budget: invalid epoch range [%d, %d]", minEpochs, maxEpochs)
	}
	if minFrac <= 0 || minFrac > 1 {
		return nil, fmt.Errorf("budget: invalid min fraction %v", minFrac)
	}
	return &MultiStrategy{minEpochs: minEpochs, maxEpochs: maxEpochs, minFrac: minFrac}, nil
}

// Name returns "multi".
func (m *MultiStrategy) Name() string { return "multi" }

// At implements Algorithm 2: both dimensions grow with it, capped
// independently.
func (m *MultiStrategy) At(it int) Allocation {
	if it < 1 {
		it = 1
	}
	return Allocation{
		Epochs:       min(m.minEpochs*it, m.maxEpochs),
		DataFraction: min(m.minFrac*float64(it), 1),
	}
}

// Saturated reports whether both dimensions have reached their caps.
func (m *MultiStrategy) Saturated(it int) bool {
	a := m.At(it)
	return a.Epochs >= m.maxEpochs && a.DataFraction >= 1
}

// --- Registry --------------------------------------------------------------

// Strategy names accepted by New.
const (
	KindEpochs  = "epochs"
	KindDataset = "dataset"
	KindMulti   = "multi"
)

// Defaults matching the running example in §4.3 of the paper: minimum 2
// epochs, maximum 10, and a 10% minimum dataset fraction.
const (
	DefaultMinEpochs = 2
	DefaultMaxEpochs = 10
	DefaultMinFrac   = 0.1
)

// New constructs a strategy by name using the paper's default
// parameters. The empty name selects multi-budget, EdgeTune's default.
func New(kind string) (Strategy, error) {
	switch kind {
	case KindEpochs:
		return NewEpoch(DefaultMinEpochs, DefaultMaxEpochs)
	case KindDataset:
		return NewDataset(DefaultMinFrac)
	case KindMulti, "":
		return NewMulti(DefaultMinEpochs, DefaultMaxEpochs, DefaultMinFrac)
	default:
		return nil, fmt.Errorf("budget: unknown strategy %q", kind)
	}
}
