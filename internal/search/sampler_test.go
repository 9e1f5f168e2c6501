package search

import (
	"math"
	"sync"
	"testing"
)

// quadratic is a smooth test objective with its minimum at the given
// point in unit space.
func quadratic(s *Space, minimum []float64) func(cfg Config) float64 {
	return func(cfg Config) float64 {
		u := s.ToUnit(cfg)
		var d float64
		for i := range u {
			diff := u[i] - minimum[i]
			d += diff * diff
		}
		return d
	}
}

func twoDSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(
		Param{Name: "x", Kind: Float, Min: 0, Max: 1},
		Param{Name: "y", Kind: Float, Min: 0, Max: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRandomSamplerCoversSpace(t *testing.T) {
	s := twoDSpace(t)
	r := NewRandomSampler(s, 1)
	var minX, maxX = 1.0, 0.0
	for i := 0; i < 200; i++ {
		cfg := r.Sample()
		if !s.Contains(cfg) {
			t.Fatal("random sample outside space")
		}
		minX = math.Min(minX, cfg["x"])
		maxX = math.Max(maxX, cfg["x"])
	}
	if minX > 0.1 || maxX < 0.9 {
		t.Errorf("random sampling poorly spread: [%v, %v]", minX, maxX)
	}
}

func TestGridSamplerEnumerates(t *testing.T) {
	s, err := NewSpace(
		Param{Name: "a", Kind: Choice, Choices: []float64{1, 2, 3}},
		Param{Name: "b", Kind: Choice, Choices: []float64{10, 20}},
	)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGridSampler(s, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 6 {
		t.Fatalf("grid size = %d, want 6", g.Size())
	}
	seen := make(map[string]bool)
	for i := 0; i < 6; i++ {
		seen[g.Sample().Key()] = true
	}
	if len(seen) != 6 {
		t.Errorf("grid enumerated %d unique points, want 6", len(seen))
	}
	// Cycles after exhaustion.
	first := g.Sample().Key()
	if !seen[first] {
		t.Error("cycled sample was not part of the grid")
	}
}

func TestGridSamplerCap(t *testing.T) {
	s, err := NewSpace(
		Param{Name: "a", Kind: Float, Min: 0, Max: 1},
		Param{Name: "b", Kind: Float, Min: 0, Max: 1},
		Param{Name: "c", Kind: Float, Min: 0, Max: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGridSampler(s, 100, 1000); err == nil {
		t.Error("oversized grid did not error")
	}
}

func TestTPEWarmupIsRandom(t *testing.T) {
	s := twoDSpace(t)
	tpe := NewTPESampler(s, 1, TPEOptions{MinObservations: 10})
	for i := 0; i < 5; i++ {
		if !s.Contains(tpe.Sample()) {
			t.Fatal("warmup sample outside space")
		}
	}
	if tpe.ObservationCount() != 0 {
		t.Error("sampling should not create observations")
	}
}

func TestTPEConcentratesNearOptimum(t *testing.T) {
	s := twoDSpace(t)
	obj := quadratic(s, []float64{0.8, 0.2})
	tpe := NewTPESampler(s, 7, TPEOptions{MinObservations: 10})
	rand := NewRandomSampler(s, 7)

	// Warm the model with random observations.
	for i := 0; i < 60; i++ {
		cfg := rand.Sample()
		tpe.Observe(Observation{Config: cfg, Score: obj(cfg), Budget: 1})
	}
	// TPE proposals should now average a lower objective than fresh
	// random samples.
	var tpeSum, randSum float64
	const n = 40
	for i := 0; i < n; i++ {
		tpeSum += obj(tpe.Sample())
		randSum += obj(rand.Sample())
	}
	if tpeSum >= randSum {
		t.Errorf("TPE mean objective %v not better than random %v", tpeSum/n, randSum/n)
	}
}

func TestTPERejectsBrokenScores(t *testing.T) {
	s := twoDSpace(t)
	tpe := NewTPESampler(s, 1, TPEOptions{})
	tpe.Observe(Observation{Config: s.Sample(NewRandomSampler(s, 1).rng), Score: math.NaN()})
	tpe.Observe(Observation{Config: Config{"x": 0.5, "y": 0.5}, Score: math.Inf(1)})
	if got := tpe.ObservationCount(); got != 0 {
		t.Errorf("NaN/Inf observations absorbed: %d", got)
	}
}

func TestTPEConcurrentSafety(t *testing.T) {
	s := twoDSpace(t)
	tpe := NewTPESampler(s, 1, TPEOptions{MinObservations: 4})
	obj := quadratic(s, []float64{0.5, 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := NewRandomSampler(s, seed)
			for i := 0; i < 50; i++ {
				cfg := r.Sample()
				tpe.Observe(Observation{Config: cfg, Score: obj(cfg), Budget: 1})
				_ = tpe.Sample()
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := tpe.ObservationCount(); got != 400 {
		t.Errorf("observations = %d, want 400", got)
	}
}

func TestNewSamplerRegistry(t *testing.T) {
	s := twoDSpace(t)
	for _, algo := range []string{AlgoRandom, AlgoGrid, AlgoBOHB, ""} {
		smp, err := NewSampler(algo, s, 1)
		if err != nil {
			t.Fatalf("NewSampler(%q): %v", algo, err)
		}
		if !s.Contains(smp.Sample()) {
			t.Errorf("%q sampler produced invalid config", algo)
		}
	}
	if _, err := NewSampler("annealing", s, 1); err == nil {
		t.Error("unknown algorithm did not error")
	}
}

// TestSamplerStateResumes checks the crash/restart contract for every
// Resumable sampler: a fresh sampler restored to a mid-stream snapshot
// must propose exactly the configurations the original would have
// proposed next.
func TestSamplerStateResumes(t *testing.T) {
	s := twoDSpace(t)
	fresh := map[string]func() Sampler{
		"random": func() Sampler { return NewRandomSampler(s, 7) },
		"halton": func() Sampler { return NewHaltonSampler(s, 7) },
		"bohb":   func() Sampler { return NewTPESampler(s, 7, TPEOptions{}) },
	}
	for name, mk := range fresh {
		t.Run(name, func(t *testing.T) {
			orig := mk()
			// Warm the TPE model past minObs so Sample consumes RNG in
			// the modelled path, not just the random fallback. The test
			// keeps the replay log itself, as a checkpointing caller does.
			var log []Observation
			for i := 0; i < 20; i++ {
				o := Observation{Config: orig.Sample(), Score: float64(i), Budget: 1}
				orig.Observe(o)
				log = append(log, o)
			}
			snap := orig.(Resumable).SamplerState()

			resumed := mk()
			// Replay the observations (as checkpoint resume does), then
			// restore the stream position.
			for _, o := range log {
				resumed.Observe(o)
			}
			resumed.(Resumable).RestoreSamplerState(snap)

			for i := 0; i < 5; i++ {
				a, b := orig.Sample(), resumed.Sample()
				if !sameConfig(a, b) {
					t.Fatalf("draw %d diverged after restore: %v vs %v", i, a, b)
				}
			}
		})
	}

	g, err := NewGridSampler(s, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		g.Sample()
	}
	snap := g.SamplerState()
	g2, err := NewGridSampler(s, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g2.RestoreSamplerState(snap)
	if !sameConfig(g.Sample(), g2.Sample()) {
		t.Error("grid cursor not restored")
	}
}

func sameConfig(a, b Config) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestSampleIntoMatchesSample: for every sampler, SampleInto into one
// reused map proposes bit for bit what Sample proposes in fresh maps,
// draw for draw, with the same observations fed to both in between.
func TestSampleIntoMatchesSample(t *testing.T) {
	space := mixedSpace(t)
	mk := map[string]func() Sampler{
		"random": func() Sampler { return NewRandomSampler(space, 11) },
		"halton": func() Sampler { return NewHaltonSampler(space, 11) },
		"bohb":   func() Sampler { return NewTPESampler(space, 11, TPEOptions{MinObservations: 6}) },
		"grid": func() Sampler {
			g, err := NewGridSampler(space, 4, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
	for name, fresh := range mk {
		t.Run(name, func(t *testing.T) {
			a, b := fresh(), fresh()
			dst := Config{}
			for i := 0; i < 200; i++ {
				want := a.Sample()
				b.SampleInto(dst)
				if len(dst) != len(want) {
					t.Fatalf("draw %d: SampleInto set %v, Sample %v", i, dst, want)
				}
				for k, v := range want {
					if got, ok := dst[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("draw %d: %s = %v by SampleInto, %v by Sample", i, k, got, v)
					}
				}
				o := Observation{Config: want, Score: want["freq"]*want["cores"] + float64(i%3), Budget: 1}
				a.Observe(o)
				b.Observe(o)
			}
		})
	}
}
