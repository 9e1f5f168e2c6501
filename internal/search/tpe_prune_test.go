package search

import (
	"fmt"
	"math"
	"testing"

	"edgetune/internal/sim"
)

// fullSampleInto is SampleInto as it stood before candidates were
// pruned: every candidate scored in full by kdeLogDensity, the kernel
// density loop over the arena. It is the reference the pruned scorer
// must reproduce bit for bit; do not "tidy" it.
func (t *TPESampler) fullSampleInto(dst Config) {
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
		for j, c := range t.unit(good[t.rng.Intn(len(good))]) {
			t.cand[j] = clamp(c+t.rng.NormFloat64()*t.bandwidth, 0, 1)
		}
		if ratio := t.kdeLogDensity(good, t.cand) - t.kdeLogDensity(bad, t.cand); ratio > bestRatio {
			bestRatio = ratio
			copy(t.best, t.cand)
		}
	}
	if math.IsInf(bestRatio, -1) {
		t.space.SampleInto(t.rng, dst)
		return
	}
	_ = t.space.FromUnitInto(t.best, dst)
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

// pruneSpaces are the 1-D and 6-D spaces the scorer is checked in.
func pruneSpaces(t *testing.T) map[string]*Space {
	t.Helper()
	one, err := NewSpace(Param{Name: "x", Kind: Float, Min: 0, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	six, err := NewSpace(
		Param{Name: "a", Kind: Float, Min: 0, Max: 1},
		Param{Name: "b", Kind: Float, Min: -3, Max: 3},
		Param{Name: "c", Kind: Int, Min: 1, Max: 100, Log: true},
		Param{Name: "d", Kind: Int, Min: 1, Max: 8},
		Param{Name: "e", Kind: Float, Min: 0.8, Max: 3.6},
		Param{Name: "f", Kind: Float, Min: 10, Max: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Space{"1-D": one, "6-D": six}
}

// pruneObservation is the configuration fed back after a draw: the draw
// itself, a repeat of an earlier configuration (duplicated points, so
// ratios tie exactly), or a point on the cube's faces (so candidates
// drawn around it are clamped there).
func pruneObservation(space *Space, drive *sim.RNG, drawn Config, seen []Config) Config {
	switch drive.Intn(4) {
	case 0:
		if len(seen) > 0 {
			return seen[drive.Intn(len(seen))].Clone()
		}
	case 1:
		cfg := drawn.Clone()
		for _, p := range space.Params() {
			if drive.Intn(2) == 0 {
				u := float64(drive.Intn(2)) // a face of the unit cube
				cfg[p.Name] = p.FromUnit(u)
			}
		}
		return cfg
	}
	return drawn.Clone()
}

// TestPrunedScorerMatchesFullScoring drives the sampler and the full
// scoring reference side by side, with the same observations, and holds
// every proposal to the reference's bit for bit: the winning unit point,
// the decoded configuration and the RNG position. The streams cover the
// default bandwidth, a wide one, one so narrow that most kernel terms
// underflow, and NaN; duplicated points with quantised scores, so
// density ratios and scores tie; a single good point (γ so small that
// nGood stays 1); 1-D and 6-D spaces; and candidates clamped to the
// cube's faces.
func TestPrunedScorerMatchesFullScoring(t *testing.T) {
	for name, space := range pruneSpaces(t) {
		for _, bw := range []float64{0.12, 0.3, 0.01, math.NaN()} {
			for _, gamma := range []float64{0.25, 0.01} {
				t.Run(fmt.Sprintf("%s/bw=%v/gamma=%v", name, bw, gamma), func(t *testing.T) {
					for seed := uint64(1); seed <= 12; seed++ {
						checkPrunedStream(t, space, seed, TPEOptions{Gamma: gamma, Bandwidth: bw, MinObservations: 2})
					}
				})
			}
		}
	}
}

func checkPrunedStream(t *testing.T, space *Space, seed uint64, opts TPEOptions) {
	t.Helper()
	got, want := NewTPESampler(space, seed, opts), NewTPESampler(space, seed, opts)
	drive := sim.NewRNG(seed ^ 0x9a11)
	var seen []Config
	a, b := Config{}, Config{}
	for i := 0; i < 40; i++ {
		got.SampleInto(a)
		want.fullSampleInto(b)
		for j := range got.best {
			if math.Float64bits(got.best[j]) != math.Float64bits(want.best[j]) {
				t.Fatalf("seed %d draw %d: winner %v, full scoring's %v", seed, i, got.best, want.best)
			}
		}
		if !sameConfig(a, b) || got.rng.State() != want.rng.State() {
			t.Fatalf("seed %d draw %d: %v at %v, full scoring %v at %v", seed, i, a, got.rng.State(), b, want.rng.State())
		}
		cfg := pruneObservation(space, drive, a, seen)
		seen = append(seen, cfg)
		o := Observation{Config: cfg, Score: float64(drive.Intn(5)), Budget: 1}
		got.Observe(o)
		want.Observe(o)
	}
}

// TestScorerAtTheBound puts the ratio to beat one ulp under each
// candidate's exact ratio, where a bound that is too eager shows: the
// candidate must still win, with its exact ratio, and must not win
// against its own ratio. The models include the ones where the bounds
// are tight — one good and one bad point, where the exp-free bound is
// the ratio itself, and one bad point beside many good ones, where the
// bad sum is its nearest term — and where far terms underflow.
func TestScorerAtTheBound(t *testing.T) {
	for name, space := range pruneSpaces(t) {
		checked := 0
		for _, bw := range []float64{0.12, 0.3, 0.01} {
			for _, n := range []int{2, 3, 9, 24} {
				for _, gamma := range []float64{0.25, 0.9} {
					checked += checkBound(t, fmt.Sprintf("%s/bw=%v/n=%d/gamma=%v", name, bw, n, gamma), space, bw, n, gamma)
				}
			}
		}
		// Most candidates must have had a ratio the bounds apply to, or
		// the test checked nothing.
		if checked < 2000 {
			t.Errorf("%s: %d candidates had a ratio under %d, want 2000", name, checked, pruneLimit)
		}
	}
}

// checkBound checks 300 candidates of one model and returns how many of
// them had a ratio small enough for the bounds to apply.
func checkBound(t *testing.T, label string, space *Space, bw float64, n int, gamma float64) int {
	t.Helper()
	s := NewTPESampler(space, uint64(n), TPEOptions{Gamma: gamma, Bandwidth: bw, MinObservations: 2})
	drive := sim.NewRNG(uint64(n) * 7919)
	var seen []Config
	for i := 0; i < n; i++ {
		cfg := pruneObservation(space, drive, space.Sample(drive), seen)
		seen = append(seen, cfg)
		s.Observe(Observation{Config: cfg, Score: float64(i), Budget: 1})
	}
	good, bad := s.split()
	k := s.gather(good, bad, nil)
	u := make([]float64, space.Dim())
	checked := 0
	for c := 0; c < 300; c++ {
		s.sampleFromKDE(&k, u)
		r := s.kdeLogDensity(good, u) - s.kdeLogDensity(bad, u)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			continue
		}
		k.setBest(math.Nextafter(r, math.Inf(-1)))
		if !k.beats(u) || math.Float64bits(k.best) != math.Float64bits(r) {
			t.Fatalf("%s: candidate %v with ratio %v lost to one ulp less (best now %v)", label, u, r, k.best)
		}
		k.setBest(r)
		if k.beats(u) {
			t.Fatalf("%s: candidate %v beat its own ratio %v", label, u, r)
		}
		if math.Abs(r) < pruneLimit {
			checked++
		}
	}
	return checked
}

// TestScorerWithSubnormalGoodTerms sweeps candidates across a 1-D model
// of one good and one bad point, so narrow (bandwidth 0.01) that for
// some candidates the good kernel term is subnormal while the bad one is
// not: a subnormal rounds up by far more than the margin, and the
// exp-free bound must not take the good density below e^-goodFloor.
func TestScorerWithSubnormalGoodTerms(t *testing.T) {
	space := pruneSpaces(t)["1-D"]
	s := NewTPESampler(space, 1, TPEOptions{Bandwidth: 0.01, MinObservations: 2})
	s.Observe(Observation{Config: Config{"x": 0.1}, Score: 0, Budget: 1})
	s.Observe(Observation{Config: Config{"x": 0.75}, Score: 1, Budget: 1})
	good, bad := s.split()
	k := s.gather(good, bad, nil)
	subnormal := 0
	for i := 0; i <= 100000; i++ {
		u := []float64{float64(i) / 100000}
		r := s.kdeLogDensity(good, u) - s.kdeLogDensity(bad, u)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			continue
		}
		if g := math.Exp(-(u[0] - 0.1) * (u[0] - 0.1) * k.inv2h2); g > 0 && g < 0x1p-1022 {
			subnormal++
		}
		k.setBest(math.Nextafter(r, math.Inf(-1)))
		if !k.beats(u) || math.Float64bits(k.best) != math.Float64bits(r) {
			t.Fatalf("candidate %v with ratio %v lost to one ulp less", u, r)
		}
	}
	if subnormal < 100 {
		t.Fatalf("%d candidates had a subnormal good term, want 100", subnormal)
	}
}
