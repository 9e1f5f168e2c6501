// Package search implements the hyperparameter search substrate:
// parameter spaces, the sampling strategies the paper discusses (grid
// search, random search, and BOHB's TPE density model), and the
// successive-halving schedule they plug into. It replaces the role Ray
// Tune's scheduler/search-algorithm stack plays in the original EdgeTune
// prototype.
package search

import (
	"fmt"
	"math"
	"sort"

	"edgetune/internal/sim"
)

// Kind distinguishes parameter domains.
type Kind int

// Parameter domain kinds.
const (
	Choice Kind = iota + 1 // finite set of numeric values
	Int                    // integer range [Min, Max]
	Float                  // continuous range [Min, Max]
)

// Param describes one tunable parameter.
type Param struct {
	Name    string
	Kind    Kind
	Choices []float64 // Choice only; must be sorted ascending
	Min     float64   // Int/Float only
	Max     float64   // Int/Float only
	Log     bool      // Int/Float: sample on a log scale
}

// Validate reports whether the parameter definition is well-formed.
func (p Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("search: parameter with empty name")
	}
	switch p.Kind {
	case Choice:
		if len(p.Choices) == 0 {
			return fmt.Errorf("search: %s: choice parameter needs values", p.Name)
		}
		for i := 1; i < len(p.Choices); i++ {
			if p.Choices[i] <= p.Choices[i-1] {
				return fmt.Errorf("search: %s: choices must be strictly ascending", p.Name)
			}
		}
	case Int, Float:
		if p.Min >= p.Max {
			return fmt.Errorf("search: %s: min %v >= max %v", p.Name, p.Min, p.Max)
		}
		if p.Log && p.Min <= 0 {
			return fmt.Errorf("search: %s: log scale requires positive min", p.Name)
		}
	default:
		return fmt.Errorf("search: %s: unknown kind %d", p.Name, p.Kind)
	}
	return nil
}

// Sample draws a uniform value from the parameter's domain.
func (p Param) Sample(rng *sim.RNG) float64 {
	return p.FromUnit(rng.Float64())
}

// Unit maps a domain value to [0, 1] for density modelling.
func (p Param) Unit(v float64) float64 {
	switch p.Kind {
	case Choice:
		idx := p.nearestChoice(v)
		if len(p.Choices) == 1 {
			return 0.5
		}
		return float64(idx) / float64(len(p.Choices)-1)
	default:
		lo, hi, x := p.Min, p.Max, v
		if p.Log {
			lo, hi, x = math.Log(lo), math.Log(hi), math.Log(clamp(v, p.Min, p.Max))
		}
		return clamp((x-lo)/(hi-lo), 0, 1)
	}
}

// FromUnit maps u ∈ [0, 1] back to a valid domain value (rounding
// integers and snapping choices).
func (p Param) FromUnit(u float64) float64 {
	u = clamp(u, 0, 1)
	switch p.Kind {
	case Choice:
		idx := int(u * float64(len(p.Choices)))
		if idx >= len(p.Choices) {
			idx = len(p.Choices) - 1
		}
		return p.Choices[idx]
	default:
		lo, hi := p.Min, p.Max
		if p.Log {
			lo, hi = math.Log(lo), math.Log(hi)
		}
		v := lo + u*(hi-lo)
		if p.Log {
			v = math.Exp(v)
		}
		if p.Kind == Int {
			v = math.Round(v)
		}
		return clamp(v, p.Min, p.Max)
	}
}

// GridValues returns up to n evenly spaced domain values for grid search.
// Choice parameters return all choices regardless of n.
func (p Param) GridValues(n int) []float64 {
	if p.Kind == Choice {
		out := make([]float64, len(p.Choices))
		copy(out, p.Choices)
		return out
	}
	if n < 2 {
		n = 2
	}
	out := make([]float64, 0, n)
	seen := make(map[float64]bool, n)
	for i := 0; i < n; i++ {
		v := p.FromUnit(float64(i) / float64(n-1))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Contains reports whether v is a valid value of the domain.
func (p Param) Contains(v float64) bool {
	switch p.Kind {
	case Choice:
		for _, c := range p.Choices {
			if c == v {
				return true
			}
		}
		return false
	case Int:
		return v >= p.Min && v <= p.Max && v == math.Round(v)
	default:
		return v >= p.Min && v <= p.Max
	}
}

func (p Param) nearestChoice(v float64) int {
	best, bestIdx := math.Inf(1), 0
	for i, c := range p.Choices {
		if d := math.Abs(c - v); d < best {
			best, bestIdx = d, i
		}
	}
	return bestIdx
}

// Config is a concrete assignment of parameter values by name.
type Config map[string]float64

// Clone returns a deep copy of the config.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Key returns a canonical string identity for deduplication and caching.
func (c Config) Key() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%g;", k, c[k])
	}
	return s
}

// Space is an ordered set of parameters.
type Space struct {
	params []Param
	index  map[string]int
}

// NewSpace builds a space, validating every parameter and rejecting
// duplicates.
func NewSpace(params ...Param) (*Space, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("search: space needs at least one parameter")
	}
	s := &Space{params: params, index: make(map[string]int, len(params))}
	for i, p := range params {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("search: duplicate parameter %q", p.Name)
		}
		s.index[p.Name] = i
	}
	return s, nil
}

// Params returns the parameter definitions in declaration order.
func (s *Space) Params() []Param { return s.params }

// Dim returns the number of parameters.
func (s *Space) Dim() int { return len(s.params) }

// Sample draws a uniform configuration.
func (s *Space) Sample(rng *sim.RNG) Config {
	cfg := make(Config, len(s.params))
	s.SampleInto(rng, cfg)
	return cfg
}

// SampleInto draws a uniform configuration into dst, setting every
// parameter in declaration order (the order Sample draws in). Other
// keys of dst are left alone.
func (s *Space) SampleInto(rng *sim.RNG, dst Config) {
	for _, p := range s.params {
		dst[p.Name] = p.Sample(rng)
	}
}

// ToUnit encodes a configuration as a point in the unit hypercube,
// following declaration order.
func (s *Space) ToUnit(cfg Config) []float64 {
	u := make([]float64, len(s.params))
	for i, p := range s.params {
		u[i] = p.Unit(cfg[p.Name])
	}
	return u
}

// FromUnit decodes a unit-hypercube point into a configuration.
func (s *Space) FromUnit(u []float64) (Config, error) {
	cfg := make(Config, len(s.params))
	if err := s.FromUnitInto(u, cfg); err != nil {
		return nil, err
	}
	return cfg, nil
}

// FromUnitInto decodes a unit-hypercube point into dst, setting every
// parameter. Other keys of dst are left alone.
func (s *Space) FromUnitInto(u []float64, dst Config) error {
	if len(u) != len(s.params) {
		return fmt.Errorf("search: unit point dim %d != space dim %d", len(u), len(s.params))
	}
	for i, p := range s.params {
		dst[p.Name] = p.FromUnit(u[i])
	}
	return nil
}

// Contains reports whether cfg assigns a valid value to every parameter
// (extra keys are rejected).
func (s *Space) Contains(cfg Config) bool {
	if len(cfg) != len(s.params) {
		return false
	}
	for _, p := range s.params {
		v, ok := cfg[p.Name]
		if !ok || !p.Contains(v) {
			return false
		}
	}
	return true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
