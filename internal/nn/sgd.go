package nn

import (
	"fmt"

	"edgetune/internal/tensor"
)

// SGD is a stochastic gradient descent optimiser with classical momentum
// and optional L2 weight decay — the training method whose
// hyperparameters (§2.3.2) the paper tunes.
type SGD struct {
	lr          float64
	momentum    float64
	weightDecay float64
	velocity    map[*Param]*tensor.Matrix
	arena       *tensor.Arena // where velocities come from; nil is the heap
}

// NewSGD creates an optimiser. lr must be positive; momentum and
// weightDecay must be non-negative, momentum < 1.
func NewSGD(lr, momentum, weightDecay float64) (*SGD, error) {
	return newSGD(nil, lr, momentum, weightDecay)
}

// newSGD is NewSGD with the velocities taken from a.
func newSGD(a *tensor.Arena, lr, momentum, weightDecay float64) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("nn: learning rate %v must be positive", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("nn: momentum %v out of [0,1)", momentum)
	}
	if weightDecay < 0 {
		return nil, fmt.Errorf("nn: weight decay %v must be non-negative", weightDecay)
	}
	return &SGD{
		lr:          lr,
		momentum:    momentum,
		weightDecay: weightDecay,
		velocity:    make(map[*Param]*tensor.Matrix),
		arena:       a,
	}, nil
}

// Step applies one update to every parameter from its accumulated
// gradient, then leaves gradients untouched (callers ZeroGrad as needed).
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v, ok := s.velocity[p]
		if !ok {
			v = s.arena.New(p.W.Rows, p.W.Cols)
			s.velocity[p] = v
		}
		for i := range p.W.Data {
			g := p.Grad.Data[i] + s.weightDecay*p.W.Data[i]
			v.Data[i] = s.momentum*v.Data[i] - s.lr*g
			p.W.Data[i] += v.Data[i]
		}
	}
}

// LR reports the configured learning rate.
func (s *SGD) LR() float64 { return s.lr }
