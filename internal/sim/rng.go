package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). It is used everywhere randomness is needed so that every
// experiment is reproducible from a single seed and independent of the
// global math/rand state.
//
// The zero value is a valid generator seeded with 0; prefer NewRNG.
type RNG struct {
	state uint64
	// spare caches the second value of the Box-Muller pair.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// ExpFloat64 returns an exponential variate with rate lambda, used for
// Poisson arrival processes. It panics if lambda <= 0.
func (r *RNG) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("sim: ExpFloat64 called with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / lambda
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int { return r.PermInto(make([]int, n)) }

// PermInto overwrites dst with a pseudo-random permutation of
// [0, len(dst)) and returns it, drawing exactly what Perm(len(dst))
// draws.
func (r *RNG) PermInto(dst []int) []int {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Split derives an independent generator from the current one. The child
// stream is decorrelated from the parent by an extra mixing constant.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x5851f42d4c957f2d)
}

// RNGState is the complete serializable state of an RNG, so a stream
// can be checkpointed and resumed at exactly the same position — a
// killed-and-restarted run must consume the same draws an uninterrupted
// run would.
type RNGState struct {
	State    uint64  `json:"state"`
	Spare    float64 `json:"spare,omitempty"`
	HasSpare bool    `json:"has_spare,omitempty"`
}

// State snapshots the generator.
func (r *RNG) State() RNGState {
	return RNGState{State: r.state, Spare: r.spare, HasSpare: r.hasSpare}
}

// SetState restores a snapshot taken with State.
func (r *RNG) SetState(s RNGState) {
	r.state = s.State
	r.spare = s.Spare
	r.hasSpare = s.HasSpare
}
