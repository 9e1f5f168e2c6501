package search

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"testing"

	"edgetune/internal/sim"
)

// refTPE is a transliteration of the TPE sampler as it stood before the
// model became incremental (PR 14): it retains a cloned Config per
// observation, regroups them by budget in a map on every Sample,
// sort.Slices a copy, re-encodes every pooled observation, and decodes
// every improving candidate. It exists only to hold the new sampler to
// the old proposal stream; do not "tidy" it.
type refTPE struct {
	space        *Space
	rng          *sim.RNG
	gamma        float64
	nCandidates  int
	minObs       int
	bandwidth    float64
	observations []Observation
}

func newRefTPE(space *Space, seed uint64, opts TPEOptions) *refTPE {
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
	return &refTPE{
		space:       space,
		rng:         sim.NewRNG(seed),
		gamma:       opts.Gamma,
		nCandidates: opts.NumCandidates,
		minObs:      opts.MinObservations,
		bandwidth:   opts.Bandwidth,
	}
}

func (t *refTPE) Observe(obs Observation) {
	if math.IsNaN(obs.Score) || math.IsInf(obs.Score, 0) {
		return
	}
	t.observations = append(t.observations, Observation{
		Config: obs.Config.Clone(),
		Score:  obs.Score,
		Budget: obs.Budget,
	})
}

func (t *refTPE) Sample() Config {
	if len(t.observations) < t.minObs {
		return t.space.Sample(t.rng)
	}
	good, bad := t.split()
	if len(good) == 0 || len(bad) == 0 {
		return t.space.Sample(t.rng)
	}
	var (
		bestCfg   Config
		bestRatio = math.Inf(-1)
	)
	for i := 0; i < t.nCandidates; i++ {
		u := t.sampleFromKDE(good)
		lg := t.kdeLogDensity(good, u)
		gd := t.kdeLogDensity(bad, u)
		if ratio := lg - gd; ratio > bestRatio {
			cfg, err := t.space.FromUnit(u)
			if err != nil {
				continue
			}
			bestRatio, bestCfg = ratio, cfg
		}
	}
	if bestCfg == nil {
		return t.space.Sample(t.rng)
	}
	return bestCfg
}

func (t *refTPE) split() (good, bad [][]float64) {
	byBudget := make(map[float64][]Observation)
	for _, o := range t.observations {
		byBudget[o.Budget] = append(byBudget[o.Budget], o)
	}
	budgets := make([]float64, 0, len(byBudget))
	for b := range byBudget {
		budgets = append(budgets, b)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(budgets)))
	pool := t.observations
	for _, b := range budgets {
		if len(byBudget[b]) >= t.minObs {
			pool = byBudget[b]
			break
		}
	}

	sorted := make([]Observation, len(pool))
	copy(sorted, pool)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score < sorted[j].Score })
	nGood := int(t.gamma * float64(len(sorted)))
	if nGood < 1 {
		nGood = 1
	}
	if nGood >= len(sorted) {
		nGood = len(sorted) - 1
	}
	for i, o := range sorted {
		u := t.space.ToUnit(o.Config)
		if i < nGood {
			good = append(good, u)
		} else {
			bad = append(bad, u)
		}
	}
	return good, bad
}

func (t *refTPE) sampleFromKDE(points [][]float64) []float64 {
	center := points[t.rng.Intn(len(points))]
	u := make([]float64, len(center))
	for i, c := range center {
		v := c + t.rng.NormFloat64()*t.bandwidth
		u[i] = clamp(v, 0, 1)
	}
	return u
}

func (t *refTPE) kdeLogDensity(points [][]float64, u []float64) float64 {
	if len(points) == 0 {
		return math.Inf(-1)
	}
	inv2h2 := 1 / (2 * t.bandwidth * t.bandwidth)
	var sum float64
	for _, p := range points {
		var d2 float64
		for i := range u {
			diff := u[i] - p[i]
			d2 += diff * diff
		}
		sum += math.Exp(-d2 * inv2h2)
	}
	return math.Log(sum / float64(len(points)))
}

// mixedSpace has every parameter kind, a log scale and a one-choice
// dimension, so the equivalence runs cover each Unit/FromUnit branch.
func mixedSpace(t testing.TB) *Space {
	t.Helper()
	s, err := NewSpace(
		Param{Name: "batch", Kind: Int, Min: 1, Max: 100, Log: true},
		Param{Name: "cores", Kind: Int, Min: 1, Max: 8},
		Param{Name: "freq", Kind: Float, Min: 0.8, Max: 3.6},
		Param{Name: "layers", Kind: Choice, Choices: []float64{18, 34, 50, 101}},
		Param{Name: "fixed", Kind: Choice, Choices: []float64{7}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTPEMatchesPreIncrementalSampler is the proof obligation of the
// incremental model: over many seeds it proposes, draw for draw, exactly
// what the retained-observation sampler proposed. The stream it is driven
// with is built to hit what could diverge — scores quantised so ties are
// common (the sort's tie order decides the good/bad cut), budget tiers
// that cross minObs at different times (one never does, one is NaN),
// broken scores that must be dropped by both, observations the caller
// mutates after handing over, and a RestoreSamplerState rewind.
func TestTPEMatchesPreIncrementalSampler(t *testing.T) {
	space := mixedSpace(t)
	budgets := []float64{1, 3, 9, 27, math.NaN(), math.Inf(1), 0, math.Copysign(0, -1)}
	const draws = 120
	for seed := uint64(1); seed <= 320; seed++ {
		opts := TPEOptions{}
		switch seed % 4 {
		case 1:
			opts = TPEOptions{MinObservations: 4, NumCandidates: 7, Gamma: 0.4}
		case 2:
			opts = TPEOptions{MinObservations: 1, Bandwidth: 0.3}
		case 3:
			// A NaN bandwidth makes every density ratio NaN: the "no
			// usable candidate" fallback draws from the RNG too.
			opts = TPEOptions{MinObservations: 6, Bandwidth: math.NaN()}
		}
		got, want := NewTPESampler(space, seed, opts), newRefTPE(space, seed, opts)
		drive := sim.NewRNG(seed ^ 0x5eed)
		var snap SamplerState
		for i := 0; i < draws; i++ {
			a, b := got.Sample(), want.Sample()
			if !sameConfig(a, b) {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, i, a, b)
			}
			score := float64(drive.Intn(6)) // few distinct values: ties everywhere
			switch drive.Intn(12) {
			case 0:
				score = math.NaN()
			case 1:
				score = math.Inf(1 - 2*drive.Intn(2))
			}
			// Tier 27 only ever gets a handful of observations (below
			// minObs for most option sets); the others fill at different
			// rates so the chosen tier changes mid-stream.
			budget := budgets[drive.Intn(len(budgets))]
			if budget == 27 && drive.Intn(4) != 0 {
				budget = 1
			}
			// Sometimes feed back a configuration that was not proposed,
			// including one with a missing and an out-of-range value.
			cfg := a
			switch drive.Intn(8) {
			case 0:
				cfg = space.Sample(drive)
			case 1:
				cfg = Config{"batch": 1e6, "cores": -3, "layers": 40}
			}
			o := Observation{Config: cfg, Score: score, Budget: budget}
			got.Observe(o)
			want.Observe(o)
			for k := range cfg {
				cfg[k] = -1 // neither sampler may alias the caller's map
			}
			switch i {
			case draws / 3:
				snap = got.SamplerState()
				if ref := (SamplerState{RNG: want.rng.State()}); snap != ref {
					t.Fatalf("seed %d: RNG position %v, want %v", seed, snap, ref)
				}
			case draws / 2:
				// Rewind the proposal stream mid-run, observations kept —
				// what a checkpoint resume does after replaying its log.
				got.RestoreSamplerState(snap)
				want.rng.SetState(snap.RNG)
			}
		}
		if got.ObservationCount() != len(want.observations) {
			t.Fatalf("seed %d: %d observations absorbed, want %d", seed, got.ObservationCount(), len(want.observations))
		}
	}
}

// TestTPETieOrderIsArrivalOrder pins the invariant DESIGN.md §4.16
// names: among equal scores the good/bad cut follows what pdqsort does to
// the pool in arrival order, exactly as sort.Slice did over the copy.
func TestTPETieOrderIsArrivalOrder(t *testing.T) {
	space := twoDSpace(t)
	for _, n := range []int{5, 13, 40, 200} { // insertion sort, and pdqsort proper
		got, want := NewTPESampler(space, 1, TPEOptions{MinObservations: 2}), newRefTPE(space, 1, TPEOptions{MinObservations: 2})
		rng := sim.NewRNG(uint64(n))
		for i := 0; i < n; i++ {
			o := Observation{Config: space.Sample(rng), Score: float64(i % 3), Budget: 1}
			got.Observe(o)
			want.Observe(o)
		}
		good, bad := got.split()
		refGood, refBad := want.split()
		points := func(idx []int) [][]float64 {
			out := make([][]float64, len(idx))
			for i, j := range idx {
				out[i] = got.unit(j)
			}
			return out
		}
		if g, w := fmt.Sprint(points(good)), fmt.Sprint(refGood); g != w {
			t.Errorf("n=%d: good set\n got %s\nwant %s", n, g, w)
		}
		if g, w := fmt.Sprint(points(bad)), fmt.Sprint(refBad); g != w {
			t.Errorf("n=%d: bad set\n got %s\nwant %s", n, g, w)
		}
	}
}

// The allocation pins. A Config of a few parameters is a map: what one
// costs is measured, not assumed, so the pins hold across Go versions.
func configAllocs(space *Space) float64 {
	u := make([]float64, space.Dim())
	return testing.AllocsPerRun(100, func() { _, _ = space.FromUnit(u) })
}

func TestTPEObserveDoesNotAllocate(t *testing.T) {
	space := mixedSpace(t)
	tpe := NewTPESampler(space, 3, TPEOptions{})
	cfg := space.Sample(sim.NewRNG(3))
	// Inside the constructor's capacity hint: exactly zero.
	if allocs := testing.AllocsPerRun(20, func() {
		tpe.Observe(Observation{Config: cfg, Score: 1, Budget: 1})
	}); allocs != 0 {
		t.Errorf("Observe within the capacity hint allocates %.2f times, want 0", allocs)
	}
	// Beyond it: append growth only, so amortised zero.
	if allocs := testing.AllocsPerRun(5000, func() {
		tpe.Observe(Observation{Config: cfg, Score: 1, Budget: 1})
	}); allocs >= 0.01 {
		t.Errorf("Observe allocates %.3f times amortised over 5000 calls, want < 0.01", allocs)
	}
}

func TestTPEWarmSampleAllocatesOnlyItsConfig(t *testing.T) {
	space := mixedSpace(t)
	tpe := NewTPESampler(space, 3, TPEOptions{})
	rng := sim.NewRNG(4)
	for i := 0; i < 60; i++ {
		tpe.Observe(Observation{Config: space.Sample(rng), Score: float64(i % 7), Budget: float64(1 + i%3)})
	}
	tpe.Sample() // size the split scratch
	if allocs, limit := testing.AllocsPerRun(50, func() { tpe.Sample() }), configAllocs(space); allocs > limit {
		t.Errorf("warm Sample allocates %.1f times, want <= %.1f (one returned Config)", allocs, limit)
	}
}

// TestTPEWarmSampleIntoAllocatesNothing: a warm model proposes into the
// caller's map with no allocation at all.
func TestTPEWarmSampleIntoAllocatesNothing(t *testing.T) {
	space := mixedSpace(t)
	tpe := NewTPESampler(space, 3, TPEOptions{})
	rng := sim.NewRNG(4)
	for i := 0; i < 60; i++ {
		tpe.Observe(Observation{Config: space.Sample(rng), Score: float64(i % 7), Budget: float64(1 + i%3)})
	}
	dst := tpe.Sample() // size the split scratch; dst holds every key
	if allocs := testing.AllocsPerRun(50, func() { tpe.SampleInto(dst) }); allocs != 0 {
		t.Errorf("warm SampleInto allocates %.1f times, want 0", allocs)
	}
}

// TestTPESearchLoopAllocationBudget runs the loop the inference server's
// tuneCore runs per cache miss — 24 × (SampleInto, score, Observe) on a
// fresh sampler — and holds it to: two Configs (the proposal scratch and
// the incumbent's), plus the sampler itself (struct, RNG, arena,
// scratch; 8 allocations today, 10 allowed).
func TestTPESearchLoopAllocationBudget(t *testing.T) {
	space := mixedSpace(t)
	const trials = 24
	search := func() {
		tpe := NewTPESampler(space, 9, TPEOptions{})
		cfg, best := make(Config, space.Dim()), make(Config, space.Dim())
		bestScore := math.Inf(1)
		for i := 0; i < trials; i++ {
			tpe.SampleInto(cfg)
			score := cfg["freq"] * cfg["cores"]
			tpe.Observe(Observation{Config: cfg, Score: score, Budget: 1})
			if score < bestScore {
				bestScore = score
				maps.Copy(best, cfg)
			}
		}
	}
	budget := 2*configAllocs(space) + 10
	if allocs := testing.AllocsPerRun(20, search); allocs > budget {
		t.Errorf("a %d-trial search allocates %.1f times, budget %.0f", trials, allocs, budget)
	}
}
