package search

import (
	"math"
	"sync"
)

// HaltonSampler is a quasi-random (low-discrepancy) variant of random
// search: successive points fill the space far more evenly than
// pseudo-random draws, which improves small-budget coverage — a common
// upgrade over the paper's plain random-search option. Dimension d uses
// the radical-inverse sequence in the d-th prime base, with a fixed
// offset so different seeds produce different (but still
// low-discrepancy) streams.
type HaltonSampler struct {
	mu    sync.Mutex
	space *Space
	index int
	bases []int
	u     []float64 // decode scratch
}

// first primes used as Halton bases; spaces wider than this fall back
// to re-using bases with index scrambling.
var haltonPrimes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}

// NewHaltonSampler creates a low-discrepancy sampler over space. seed
// offsets the sequence start.
func NewHaltonSampler(space *Space, seed uint64) *HaltonSampler {
	bases := make([]int, space.Dim())
	for i := range bases {
		bases[i] = haltonPrimes[i%len(haltonPrimes)]
	}
	return &HaltonSampler{
		space: space,
		// Skip the degenerate early prefix and decorrelate seeds.
		index: 20 + int(seed%1000),
		bases: bases,
		u:     make([]float64, len(bases)),
	}
}

// Name returns "halton".
func (h *HaltonSampler) Name() string { return "halton" }

// Sample returns the next low-discrepancy point mapped into the space.
func (h *HaltonSampler) Sample() Config {
	cfg := make(Config, h.space.Dim())
	h.SampleInto(cfg)
	return cfg
}

// SampleInto decodes the next low-discrepancy point into dst.
func (h *HaltonSampler) SampleInto(dst Config) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for d := range h.u {
		h.u[d] = radicalInverse(h.index, h.bases[d])
	}
	h.index++
	_ = h.space.FromUnitInto(h.u, dst) // len(u) == Dim by construction
}

// Observe is a no-op: quasi-random search does not learn.
func (h *HaltonSampler) Observe(Observation) {}

// SamplerState implements Resumable: the state is the sequence index.
func (h *HaltonSampler) SamplerState() SamplerState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return SamplerState{Cursor: h.index}
}

// RestoreSamplerState implements Resumable.
func (h *HaltonSampler) RestoreSamplerState(s SamplerState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.index = s.Cursor
}

// radicalInverse computes the base-b van der Corput radical inverse of n.
func radicalInverse(n, base int) float64 {
	var (
		inv    = 1 / float64(base)
		factor = inv
		result float64
	)
	for n > 0 {
		result += float64(n%base) * factor
		n /= base
		factor *= inv
	}
	if result >= 1 {
		result = math.Nextafter(1, 0)
	}
	return result
}

// AlgoHalton names the quasi-random strategy in the registry.
const AlgoHalton = "halton"

var _ Sampler = (*HaltonSampler)(nil)
