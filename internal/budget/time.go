package budget

import "fmt"

// TimeStrategy is the third budget type of §2.2: trials run under a
// wall-time cap that grows with the iteration. Because the trial
// executor works in epochs, the strategy converts its time cap into an
// epoch allowance using a caller-supplied estimate of the time one
// full-dataset epoch takes for the workload (the same conversion a
// time-budgeted tuning server performs internally).
type TimeStrategy struct {
	minSeconds, maxSeconds float64
	secondsPerEpoch        float64
	maxEpochs              int
}

// NewTime creates a duration-based budget: iteration it may spend
// min(minSeconds·it, maxSeconds) of training time, converted to whole
// epochs at secondsPerEpoch (always at least one epoch).
func NewTime(minSeconds, maxSeconds, secondsPerEpoch float64, maxEpochs int) (*TimeStrategy, error) {
	if minSeconds <= 0 || maxSeconds < minSeconds {
		return nil, fmt.Errorf("budget: invalid time range [%v, %v]", minSeconds, maxSeconds)
	}
	if secondsPerEpoch <= 0 {
		return nil, fmt.Errorf("budget: seconds per epoch %v must be positive", secondsPerEpoch)
	}
	if maxEpochs < 1 {
		return nil, fmt.Errorf("budget: max epochs %d must be >= 1", maxEpochs)
	}
	return &TimeStrategy{
		minSeconds:      minSeconds,
		maxSeconds:      maxSeconds,
		secondsPerEpoch: secondsPerEpoch,
		maxEpochs:       maxEpochs,
	}, nil
}

// Name returns "time".
func (t *TimeStrategy) Name() string { return "time" }

// At converts the iteration's time cap into an epoch allocation on the
// full dataset.
func (t *TimeStrategy) At(it int) Allocation {
	if it < 1 {
		it = 1
	}
	cap := min(t.minSeconds*float64(it), t.maxSeconds)
	epochs := int(cap / t.secondsPerEpoch)
	if epochs < 1 {
		epochs = 1
	}
	if epochs > t.maxEpochs {
		epochs = t.maxEpochs
	}
	return Allocation{Epochs: epochs, DataFraction: 1}
}

// Saturated reports whether the time cap (or the epoch ceiling) is
// reached.
func (t *TimeStrategy) Saturated(it int) bool {
	if it < 1 {
		it = 1
	}
	a := t.At(it)
	return a.Epochs >= t.maxEpochs || t.minSeconds*float64(it) >= t.maxSeconds
}

var _ Strategy = (*TimeStrategy)(nil)
