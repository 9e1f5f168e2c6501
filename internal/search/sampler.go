package search

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"

	"edgetune/internal/sim"
)

// Observation records the score a configuration achieved at a budget
// level. Lower scores are better (all EdgeTune objectives are
// minimised).
type Observation struct {
	Config Config
	Score  float64
	Budget float64
}

// Sampler proposes configurations and learns from observations. All
// implementations are safe for concurrent use.
type Sampler interface {
	// Name identifies the strategy ("random", "grid", "bohb").
	Name() string
	// Sample proposes one configuration in a fresh map, the caller's.
	Sample() Config
	// SampleInto proposes the configuration Sample would, into dst: it
	// sets every parameter of the space and leaves other keys alone. The
	// sampler does not retain dst, so a caller reusing one map per
	// search allocates nothing per proposal.
	SampleInto(dst Config)
	// Observe feeds back a completed trial result. The sampler does not
	// retain obs.Config.
	Observe(obs Observation)
}

// SamplerState is the serializable position of a sampler's proposal
// stream. Checkpointing it lets a killed-and-restarted search draw the
// same future configurations an uninterrupted run would — observations
// are replayed from the trial log, but the stream position (RNG state
// or sequence cursor) exists nowhere else.
type SamplerState struct {
	RNG    sim.RNGState `json:"rng"`
	Cursor int          `json:"cursor,omitempty"`
}

// Resumable is implemented by samplers whose proposal stream can be
// checkpointed and restored.
type Resumable interface {
	SamplerState() SamplerState
	RestoreSamplerState(SamplerState)
}

// --- Random search -------------------------------------------------------

// RandomSampler draws configurations uniformly (Bergstra & Bengio 2012),
// one of the paper's pluggable strategies.
type RandomSampler struct {
	mu    sync.Mutex
	space *Space
	rng   *sim.RNG
}

// NewRandomSampler creates a uniform sampler over space.
func NewRandomSampler(space *Space, seed uint64) *RandomSampler {
	return &RandomSampler{space: space, rng: sim.NewRNG(seed)}
}

// Name returns "random".
func (r *RandomSampler) Name() string { return "random" }

// Sample draws a uniform configuration.
func (r *RandomSampler) Sample() Config {
	cfg := make(Config, r.space.Dim())
	r.SampleInto(cfg)
	return cfg
}

// SampleInto draws a uniform configuration into dst.
func (r *RandomSampler) SampleInto(dst Config) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.space.SampleInto(r.rng, dst)
}

// Observe is a no-op: random search does not learn.
func (r *RandomSampler) Observe(Observation) {}

// SamplerState implements Resumable.
func (r *RandomSampler) SamplerState() SamplerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SamplerState{RNG: r.rng.State()}
}

// RestoreSamplerState implements Resumable.
func (r *RandomSampler) RestoreSamplerState(s SamplerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng.SetState(s.RNG)
}

// --- Grid search ---------------------------------------------------------

// GridSampler exhaustively enumerates a lattice over the space, cycling
// when exhausted. PointsPerDim controls the lattice resolution of
// continuous parameters.
type GridSampler struct {
	mu   sync.Mutex
	grid []Config
	next int
}

// NewGridSampler enumerates the full cartesian grid. It returns an error
// if the grid would exceed maxPoints (guarding against combinatorial
// explosion).
func NewGridSampler(space *Space, pointsPerDim, maxPoints int) (*GridSampler, error) {
	values := make([][]float64, space.Dim())
	total := 1
	for i, p := range space.Params() {
		values[i] = p.GridValues(pointsPerDim)
		total *= len(values[i])
		if total > maxPoints {
			return nil, fmt.Errorf("search: grid of %d+ points exceeds cap %d", total, maxPoints)
		}
	}
	grid := make([]Config, 0, total)
	idx := make([]int, space.Dim())
	for {
		cfg := make(Config, space.Dim())
		for i, p := range space.Params() {
			cfg[p.Name] = values[i][idx[i]]
		}
		grid = append(grid, cfg)
		// Odometer increment.
		d := 0
		for d < len(idx) {
			idx[d]++
			if idx[d] < len(values[d]) {
				break
			}
			idx[d] = 0
			d++
		}
		if d == len(idx) {
			break
		}
	}
	return &GridSampler{grid: grid}, nil
}

// Name returns "grid".
func (g *GridSampler) Name() string { return "grid" }

// Sample returns the next lattice point, cycling at the end.
func (g *GridSampler) Sample() Config {
	cfg := make(Config, len(g.grid[0]))
	g.SampleInto(cfg)
	return cfg
}

// SampleInto copies the next lattice point into dst, cycling at the end.
func (g *GridSampler) SampleInto(dst Config) {
	g.mu.Lock()
	defer g.mu.Unlock()
	maps.Copy(dst, g.grid[g.next%len(g.grid)])
	g.next++
}

// Observe is a no-op: grid search does not learn.
func (g *GridSampler) Observe(Observation) {}

// SamplerState implements Resumable: the state is the lattice cursor.
func (g *GridSampler) SamplerState() SamplerState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return SamplerState{Cursor: g.next}
}

// RestoreSamplerState implements Resumable.
func (g *GridSampler) RestoreSamplerState(s SamplerState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next = s.Cursor
}

// Size returns the number of lattice points.
func (g *GridSampler) Size() int { return len(g.grid) }

// --- BOHB / TPE ----------------------------------------------------------

// TPESampler implements the model-based component of BOHB (Falkner et
// al. 2018): observations are split at the γ-quantile into "good" and
// "bad" sets, kernel density estimates l(x) and g(x) are fit to each in
// the unit hypercube, and candidates maximising l(x)/g(x) are proposed.
// Until minObservations results exist it falls back to random sampling,
// exactly as BOHB does.
//
// The model is incremental and owns its buffers (DESIGN.md §4.16):
// Observe encodes a configuration to its unit point once, into a flat
// arena, and a warm SampleInto allocates nothing; Sample allocates only
// the Config it returns.
type TPESampler struct {
	mu    sync.Mutex
	space *Space
	rng   *sim.RNG

	gamma       float64 // quantile separating good from bad
	nCandidates int     // candidates scored per proposal
	minObs      int     // observations required before modelling
	bandwidth   float64 // KDE kernel bandwidth in unit space

	// Observation i, in arrival order, is the unit point
	// units[i*dim:(i+1)*dim] with scores[i] and budgets[i].
	units, scores, budgets []float64
	order                  []int     // split scratch: pool indices, sorted by score
	cand, best             []float64 // Sample scratch: current and best candidate
}

// TPEOptions tunes the TPE sampler; zero values select defaults.
type TPEOptions struct {
	Gamma           float64
	NumCandidates   int
	MinObservations int
	Bandwidth       float64
}

// NewTPESampler creates a BOHB-style sampler over space.
func NewTPESampler(space *Space, seed uint64, opts TPEOptions) *TPESampler {
	if opts.Gamma <= 0 || opts.Gamma >= 1 {
		opts.Gamma = 0.25
	}
	if opts.NumCandidates <= 0 {
		opts.NumCandidates = 24
	}
	if opts.MinObservations <= 0 {
		opts.MinObservations = 2 * (space.Dim() + 1)
	}
	if opts.Bandwidth <= 0 {
		opts.Bandwidth = 0.12
	}
	// Room for a few warm-ups' worth of observations up front (a 24-trial
	// inference search never regrows); append takes over beyond that.
	dim, hint := space.Dim(), 4*opts.MinObservations
	scratch := make([]float64, 2*dim)
	return &TPESampler{
		space:       space,
		rng:         sim.NewRNG(seed),
		gamma:       opts.Gamma,
		nCandidates: opts.NumCandidates,
		minObs:      opts.MinObservations,
		bandwidth:   opts.Bandwidth,
		units:       make([]float64, 0, hint*dim),
		scores:      make([]float64, 0, hint),
		budgets:     make([]float64, 0, hint),
		order:       make([]int, 0, hint),
		cand:        scratch[:dim],
		best:        scratch[dim:],
	}
}

// Name returns "bohb".
func (t *TPESampler) Name() string { return "bohb" }

// Observe records a completed trial. The configuration is encoded here,
// once; the caller's map is not retained.
func (t *TPESampler) Observe(obs Observation) {
	if math.IsNaN(obs.Score) || math.IsInf(obs.Score, 0) {
		return // discard broken trials rather than poisoning the model
	}
	t.mu.Lock()
	for _, p := range t.space.params {
		t.units = append(t.units, p.Unit(obs.Config[p.Name]))
	}
	t.scores = append(t.scores, obs.Score)
	t.budgets = append(t.budgets, obs.Budget)
	t.mu.Unlock()
}

// SamplerState implements Resumable. Observations are not part of the
// state — the caller replays them from its trial log; only the RNG
// position is otherwise unrecoverable.
func (t *TPESampler) SamplerState() SamplerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return SamplerState{RNG: t.rng.State()}
}

// RestoreSamplerState implements Resumable.
func (t *TPESampler) RestoreSamplerState(s SamplerState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rng.SetState(s.RNG)
}

// ObservationCount reports how many results the model has absorbed.
func (t *TPESampler) ObservationCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.scores)
}

// Sample proposes the next configuration in a fresh map.
func (t *TPESampler) Sample() Config {
	cfg := make(Config, t.space.Dim())
	t.SampleInto(cfg)
	return cfg
}

// SampleInto proposes the next configuration into dst: random until
// warm, then the best of nCandidates draws from the good-density l(x)
// scored by l(x)/g(x). Only the winner is decoded: FromUnitInto is pure
// and draws no randomness, so deferring it leaves the RNG stream
// untouched.
func (t *TPESampler) SampleInto(dst Config) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.scores) < t.minObs {
		t.space.SampleInto(t.rng, dst)
		return
	}
	good, bad := t.split()
	if len(good) == 0 || len(bad) == 0 {
		t.space.SampleInto(t.rng, dst)
		return
	}
	bestRatio := math.Inf(-1)
	for i := 0; i < t.nCandidates; i++ {
		t.sampleFromKDE(good, t.cand)
		if ratio := t.kdeLogDensity(good, t.cand) - t.kdeLogDensity(bad, t.cand); ratio > bestRatio {
			bestRatio = ratio
			copy(t.best, t.cand)
		}
	}
	if math.IsInf(bestRatio, -1) { // no candidate had a usable density ratio
		t.space.SampleInto(t.rng, dst)
		return
	}
	_ = t.space.FromUnitInto(t.best, dst) // len(best) == Dim by construction
}

// tier returns the largest budget with at least minObs observations, so
// the model learns from the most faithful evaluations available (per
// BOHB). It walks the distinct budgets downwards, counting each — tiers
// are few. A NaN budget equals nothing, itself included, so it never
// forms one.
func (t *TPESampler) tier() (budget float64, ok bool) {
	below, bounded := 0.0, false // only budgets < below are still candidates
	for {
		n := 0
		for _, b := range t.budgets {
			switch {
			case b != b || bounded && b >= below:
			case n == 0 || b > budget:
				budget, n = b, 1
			case b == budget:
				n++
			}
		}
		if n == 0 || n >= t.minObs {
			return budget, n > 0
		}
		below, bounded = budget, true
	}
}

// split partitions observations (those of tier, or all of them when no
// tier is big enough) into good/bad observation indices at the γ
// quantile of score. Both halves alias the order scratch.
func (t *TPESampler) split() (good, bad []int) {
	tier, tiered := t.tier()
	t.order = t.order[:0]
	for i, b := range t.budgets {
		if !tiered || b == tier {
			t.order = append(t.order, i)
		}
	}
	sort.Sort((*byScore)(t))
	nGood := int(t.gamma * float64(len(t.order)))
	if nGood < 1 {
		nGood = 1
	}
	if nGood >= len(t.order) {
		nGood = len(t.order) - 1
	}
	return t.order[:nGood], t.order[nGood:]
}

// byScore sorts a sampler's order scratch by ascending score, as a view
// of the sampler so that sort.Sort allocates nothing. Which of two equal
// scores lands on the good side of the cut is decided by what pdqsort's
// Less/Swap sequence does to the pool in arrival order, and every
// recorded digest depends on it: keep sort.Sort (not sort.Stable) over
// a pool filled in arrival order.
type byScore TPESampler

func (b *byScore) Len() int           { return len(b.order) }
func (b *byScore) Less(i, j int) bool { return b.scores[b.order[i]] < b.scores[b.order[j]] }
func (b *byScore) Swap(i, j int)      { b.order[i], b.order[j] = b.order[j], b.order[i] }

// unit returns observation i's point in the arena.
func (t *TPESampler) unit(i int) []float64 {
	d := len(t.space.params)
	return t.units[i*d : (i+1)*d]
}

// sampleFromKDE draws a point from the mixture of Gaussians centred on
// the observations in points, truncated to the unit cube, into u.
func (t *TPESampler) sampleFromKDE(points []int, u []float64) {
	for i, c := range t.unit(points[t.rng.Intn(len(points))]) {
		u[i] = clamp(c+t.rng.NormFloat64()*t.bandwidth, 0, 1)
	}
}

// kdeLogDensity evaluates the log of the Gaussian KDE over the
// observations in points at u.
func (t *TPESampler) kdeLogDensity(points []int, u []float64) float64 {
	inv2h2 := 1 / (2 * t.bandwidth * t.bandwidth)
	var sum float64
	for _, pi := range points {
		var d2 float64
		for i, c := range t.unit(pi) {
			diff := u[i] - c
			d2 += diff * diff
		}
		sum += math.Exp(-d2 * inv2h2)
	}
	return math.Log(sum / float64(len(points)))
}

// --- Registry ------------------------------------------------------------

// Algorithm names accepted by NewSampler.
const (
	AlgoRandom = "random"
	AlgoGrid   = "grid"
	AlgoBOHB   = "bohb"
)

// NewSampler constructs a sampler by algorithm name. BOHB is the paper's
// default strategy.
func NewSampler(algo string, space *Space, seed uint64) (Sampler, error) {
	switch algo {
	case AlgoRandom:
		return NewRandomSampler(space, seed), nil
	case AlgoGrid:
		return NewGridSampler(space, 4, 100000)
	case AlgoHalton:
		return NewHaltonSampler(space, seed), nil
	case AlgoBOHB, "":
		return NewTPESampler(space, seed, TPEOptions{}), nil
	default:
		return nil, fmt.Errorf("search: unknown algorithm %q", algo)
	}
}
