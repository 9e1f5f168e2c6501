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
	// velocity is every parameter's velocity, one after another in the
	// order Step is given the parameters. The first Step makes it, so a
	// new SGD starts from rest.
	velocity []float64
	arena    *tensor.Arena // where velocity comes from; nil is the heap
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
		arena:       a,
	}, nil
}

// Step applies one update to every parameter from its accumulated
// gradient, then leaves gradients untouched (callers ZeroGrad as needed).
// An SGD must be given the same parameters, in the same order, at every
// Step.
func (s *SGD) Step(params []*Param) {
	if s.velocity == nil {
		n := 0
		for _, p := range params {
			n += len(p.W.Data)
		}
		s.velocity = s.arena.Floats(n)
	}
	lr, momentum, weightDecay, rest := s.lr, s.momentum, s.weightDecay, s.velocity
	for _, p := range params {
		w := p.W.Data
		g, v := p.Grad.Data[:len(w)], rest[:len(w)]
		rest = rest[len(w):]
		for i := range w {
			gi := g[i] + weightDecay*w[i]
			v[i] = momentum*v[i] - lr*gi
			w[i] += v[i]
		}
	}
}

// LR reports the configured learning rate.
func (s *SGD) LR() float64 { return s.lr }
