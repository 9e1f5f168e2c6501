// Package autoscale implements a deterministic, sim-clock autoscaler
// for the inference server's simulated device pool, plus a
// graceful-degradation ladder for the moments when adding capacity is
// not enough (or not possible).
//
// The controller is a pure state machine: it is evaluated exactly once
// per request submission (the "tick"), and every input it sees —
// in-system depth, admission wait, replica counts, capacity good/bad
// events — is stamped deterministically at submission time on the
// simulated clock. Two same-seed runs therefore produce byte-identical
// decision streams, which the controller folds into an FNV-1a digest
// so tests and CI can compare whole runs with a single value.
//
// Scaling up is never free: each added replica charges a warm-up cost
// (time and energy) to the run's budget, mirroring the warm-up-aware
// scaling argument in "On the Sustainability of AI Inferences in the
// Edge". Scaling down is hysteresis-bounded so a single calm tick
// cannot flap capacity away.
package autoscale

import (
	"fmt"
	"sync"
	"time"
)

// Mode is a rung on the graceful-degradation ladder. Modes are
// cumulative: each deeper rung keeps every restriction of the rungs
// above it.
type Mode int

const (
	// ModeNormal serves all traffic with hedging enabled.
	ModeNormal Mode = iota
	// ModeShedBackground is the rung that would shed background
	// traffic; the inference server has none, so it restricts nothing.
	ModeShedBackground
	// ModeNoHedging additionally disables hedged requests, halving
	// worst-case device load per request.
	ModeNoHedging
	// ModeCriticalOnly is the rung that would evict queued background
	// work; like ModeShedBackground it adds no restriction of its own.
	ModeCriticalOnly
)

// String returns the stable, kebab-case name used in traces, reasons
// and reports.
func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeShedBackground:
		return "shed-background"
	case ModeNoHedging:
		return "no-hedging"
	case ModeCriticalOnly:
		return "critical-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config bounds and tunes the controller. The zero value of any field
// selects the documented default; negative values are rejected by
// Validate.
type Config struct {
	// Min and Max bound the replica count. Defaults: 1 and 4.
	Min int `json:"min,omitempty"`
	Max int `json:"max,omitempty"`
	// ScaleUpAt and ScaleDownAt are saturation thresholds on
	// in-system depth over queue limit. Defaults: 0.75 and 0.25.
	ScaleUpAt   float64 `json:"scaleUpAt,omitempty"`
	ScaleDownAt float64 `json:"scaleDownAt,omitempty"`
	// BurnHot and BurnCalm are burn-rate thresholds on the
	// serving/capacity objective (error rate over error budget).
	// Defaults: 14.4 (the standing page-worthy burn threshold) and 1
	// (burning no faster than budget).
	BurnHot  float64 `json:"burnHot,omitempty"`
	BurnCalm float64 `json:"burnCalm,omitempty"`
	// Target is the capacity objective's success target used to turn
	// the windowed bad-event rate into a burn rate. Default: 0.95.
	Target float64 `json:"target,omitempty"`
	// Window is the number of recent submissions the controller's
	// internal burn-rate window covers. Default: 32.
	Window int `json:"window,omitempty"`
	// HysteresisTicks is the number of consecutive calm ticks required
	// before each scale-down or ladder-release step. Default: 8.
	HysteresisTicks int `json:"hysteresisTicks,omitempty"`
	// LadderAfterTicks is the number of consecutive hot ticks after
	// which the degradation ladder steps one rung deeper. Default: 4.
	LadderAfterTicks int `json:"ladderAfterTicks,omitempty"`
	// WarmupTime and WarmupEnergyJ are charged per added replica: the
	// replica is not routable until WarmupTime of simulated time has
	// passed, and WarmupEnergyJ joules are billed to the run.
	// Defaults: 30s and 150 J.
	WarmupTime    time.Duration `json:"warmupTime,omitempty"`
	WarmupEnergyJ float64       `json:"warmupEnergyJ,omitempty"`
}

func defaults() Config {
	return Config{
		Min:              1,
		Max:              4,
		ScaleUpAt:        0.75,
		ScaleDownAt:      0.25,
		BurnHot:          14.4,
		BurnCalm:         1,
		Target:           0.95,
		Window:           32,
		HysteresisTicks:  8,
		LadderAfterTicks: 4,
		WarmupTime:       30 * time.Second,
		WarmupEnergyJ:    150,
	}
}

// Normalised returns the config with zero fields replaced by defaults,
// or an error if any explicit value is out of range.
func (c Config) Normalised() (Config, error) {
	d := defaults()
	if c.Min == 0 {
		c.Min = d.Min
	}
	if c.Max == 0 {
		c.Max = d.Max
	}
	if c.ScaleUpAt == 0 {
		c.ScaleUpAt = d.ScaleUpAt
	}
	if c.ScaleDownAt == 0 {
		c.ScaleDownAt = d.ScaleDownAt
	}
	if c.BurnHot == 0 {
		c.BurnHot = d.BurnHot
	}
	if c.BurnCalm == 0 {
		c.BurnCalm = d.BurnCalm
	}
	if c.Target == 0 {
		c.Target = d.Target
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.HysteresisTicks == 0 {
		c.HysteresisTicks = d.HysteresisTicks
	}
	if c.LadderAfterTicks == 0 {
		c.LadderAfterTicks = d.LadderAfterTicks
	}
	if c.WarmupTime == 0 {
		c.WarmupTime = d.WarmupTime
	}
	if c.WarmupEnergyJ == 0 {
		c.WarmupEnergyJ = d.WarmupEnergyJ
	}
	return c, c.validate()
}

func (c Config) validate() error {
	switch {
	case c.Min < 1:
		return fmt.Errorf("autoscale: min replicas %d < 1", c.Min)
	case c.Max < c.Min:
		return fmt.Errorf("autoscale: max replicas %d < min %d", c.Max, c.Min)
	case c.ScaleUpAt <= 0 || c.ScaleUpAt > 1:
		return fmt.Errorf("autoscale: scale-up threshold %v outside (0,1]", c.ScaleUpAt)
	case c.ScaleDownAt < 0 || c.ScaleDownAt >= c.ScaleUpAt:
		return fmt.Errorf("autoscale: scale-down threshold %v outside [0,%v)", c.ScaleDownAt, c.ScaleUpAt)
	case c.BurnHot <= 0:
		return fmt.Errorf("autoscale: hot burn threshold %v <= 0", c.BurnHot)
	case c.BurnCalm < 0 || c.BurnCalm > c.BurnHot:
		return fmt.Errorf("autoscale: calm burn threshold %v outside [0,%v]", c.BurnCalm, c.BurnHot)
	case c.Target <= 0 || c.Target >= 1:
		return fmt.Errorf("autoscale: capacity target %v outside (0,1)", c.Target)
	case c.Window < 1:
		return fmt.Errorf("autoscale: burn window %d < 1 tick", c.Window)
	case c.HysteresisTicks < 1:
		return fmt.Errorf("autoscale: hysteresis %d < 1 tick", c.HysteresisTicks)
	case c.LadderAfterTicks < 1:
		return fmt.Errorf("autoscale: ladder threshold %d < 1 tick", c.LadderAfterTicks)
	case c.WarmupTime < 0:
		return fmt.Errorf("autoscale: negative warm-up time %v", c.WarmupTime)
	case c.WarmupEnergyJ < 0:
		return fmt.Errorf("autoscale: negative warm-up energy %v J", c.WarmupEnergyJ)
	}
	return nil
}

// Signals is the controller's deterministic view of the server at one
// submission tick. All fields are stamped at submission time on the
// simulated clock.
type Signals struct {
	// At is the submission's simulated timestamp.
	At time.Duration
	// InSystem is the admission-bounded load: queued plus in-flight
	// requests, plus any phantom flash-crowd load.
	InSystem int
	// QueuedAhead is the admission-wait proxy: how much queued work a
	// new arrival would wait behind.
	QueuedAhead int
	// QueueLimit is the admission bound InSystem is measured against.
	QueueLimit int
	// Replicas is the number of active (non-retired) pool devices,
	// including ones still warming up.
	Replicas int
	// Healthy is the number of routable devices: active, past
	// warm-up, and not quarantined.
	Healthy int
	// Good reports whether this submission found capacity headroom
	// (the capacity SLO event for this tick).
	Good bool
}

// Decision is one emitted control action. Delta is +1 for a scale-up,
// -1 for a scale-down and 0 for a pure ladder transition.
type Decision struct {
	Tick     int64         `json:"tick"`
	At       time.Duration `json:"at"`
	Delta    int           `json:"delta"`
	Replicas int           `json:"replicas"` // target replica count after the decision
	Mode     Mode          `json:"mode"`
	Reason   string        `json:"reason"`
	// WarmupTime and WarmupEnergyJ are the costs charged by this
	// decision (zero unless Delta > 0).
	WarmupTime    time.Duration `json:"warmupTime,omitempty"`
	WarmupEnergyJ float64       `json:"warmupEnergyJ,omitempty"`
}

// Report is a summary snapshot of a controller's run.
type Report struct {
	Ticks         int64
	Decisions     int
	ScaleUps      int
	ScaleDowns    int
	DegradeSteps  int
	RecoverSteps  int
	DeepestMode   Mode
	FinalMode     Mode
	FinalReplicas int
	WarmupTime    time.Duration
	WarmupEnergyJ float64
	Digest        uint64
	// ModePath is the destination rung of every ladder transition in
	// order — the evidence the chaos fuzzer's monotonicity invariant
	// checks: engage and recover both move exactly one rung at a time,
	// starting from ModeNormal. Empty when the ladder never moved.
	ModePath []Mode
}

// Controller is the autoscaling state machine. All methods are safe
// for concurrent use; determinism is the caller's contract (evaluate
// in submission order).
type Controller struct {
	mu  sync.Mutex
	cfg Config

	tick   int64
	window []bool // ring buffer of capacity good/bad events
	wpos   int
	wfill  int
	bad    int // bad events currently in the window

	mode Mode
	hot  int // consecutive hot ticks
	calm int // consecutive calm ticks

	lastReplicas int
	decisions    []Decision
	digest       uint64

	scaleUps, scaleDowns int
	degrades, recovers   int
	deepest              Mode
	modePath             []Mode
	warmTime             time.Duration
	warmEnergy           float64
}

// New builds a controller from cfg (zero fields defaulted) or returns
// a validation error.
func New(cfg Config) (*Controller, error) {
	n, err := cfg.Normalised()
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:          n,
		window:       make([]bool, n.Window),
		digest:       fnvOffset,
		lastReplicas: n.Min,
	}, nil
}

// Config returns the normalised configuration the controller runs with.
func (c *Controller) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Evaluate advances the controller by one submission tick and returns
// the decision it emitted, if any. It must be called in submission
// order: the tick sequence is part of the determinism contract.
func (c *Controller) Evaluate(sig Signals) (Decision, bool) {
	if c == nil {
		return Decision{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	c.tick++
	c.lastReplicas = sig.Replicas
	c.observe(sig.Good)

	burn := c.burnLocked()
	limit := sig.QueueLimit
	if limit < 1 {
		limit = 1
	}
	sat := float64(sig.InSystem) / float64(limit)

	reason := ""
	switch {
	case sig.Healthy == 0 || 2*sig.Healthy < sig.Replicas:
		reason = "capacity-loss"
	case sat >= c.cfg.ScaleUpAt:
		reason = "saturation"
	case 2*sig.QueuedAhead >= limit:
		reason = "admission-wait"
	case burn >= c.cfg.BurnHot:
		reason = "burn"
	}
	hot := reason != ""
	calm := !hot &&
		sat <= c.cfg.ScaleDownAt &&
		burn <= c.cfg.BurnCalm &&
		2*sig.Healthy >= sig.Replicas

	switch {
	case hot:
		c.calm = 0
		c.hot++
		if sig.Replicas < c.cfg.Max {
			d := c.emit(Decision{
				At:            sig.At,
				Delta:         1,
				Replicas:      sig.Replicas + 1,
				Mode:          c.mode,
				Reason:        "scale-up:" + reason,
				WarmupTime:    c.cfg.WarmupTime,
				WarmupEnergyJ: c.cfg.WarmupEnergyJ,
			})
			return d, true
		}
		if c.hot >= c.cfg.LadderAfterTicks && c.mode < ModeCriticalOnly {
			c.mode++
			c.hot = 0
			d := c.emit(Decision{
				At:       sig.At,
				Replicas: sig.Replicas,
				Mode:     c.mode,
				Reason:   "degrade:" + c.mode.String(),
			})
			return d, true
		}
	case calm:
		c.hot = 0
		c.calm++
		if c.calm >= c.cfg.HysteresisTicks {
			if c.mode > ModeNormal {
				c.mode--
				c.calm = 0
				d := c.emit(Decision{
					At:       sig.At,
					Replicas: sig.Replicas,
					Mode:     c.mode,
					Reason:   "recover:" + c.mode.String(),
				})
				return d, true
			}
			if sig.Replicas > c.cfg.Min {
				c.calm = 0
				d := c.emit(Decision{
					At:       sig.At,
					Delta:    -1,
					Replicas: sig.Replicas - 1,
					Mode:     c.mode,
					Reason:   "scale-down:idle",
				})
				return d, true
			}
		}
	default:
		// Neither hot nor calm: the system is in between. Reset both
		// streaks so flapping load cannot accumulate a stale streak.
		c.hot, c.calm = 0, 0
	}
	return Decision{}, false
}

// observe records one capacity good/bad event in the burn window.
func (c *Controller) observe(good bool) {
	old := c.window[c.wpos]
	if c.wfill == len(c.window) && !old {
		c.bad--
	}
	c.window[c.wpos] = good
	if !good {
		c.bad++
	}
	c.wpos = (c.wpos + 1) % len(c.window)
	if c.wfill < len(c.window) {
		c.wfill++
	}
}

// burnLocked is the windowed bad-event rate divided by the capacity
// objective's error budget — the same burn-rate definition the SLO
// subsystem uses, computed over submission ticks instead of wall
// windows so it is identical across same-seed runs.
func (c *Controller) burnLocked() float64 {
	if c.wfill == 0 {
		return 0
	}
	errRate := float64(c.bad) / float64(c.wfill)
	return errRate / (1 - c.cfg.Target)
}

func (c *Controller) emit(d Decision) Decision {
	d.Tick = c.tick
	c.decisions = append(c.decisions, d)
	c.mix(d)
	switch {
	case d.Delta > 0:
		c.scaleUps++
		c.warmTime += d.WarmupTime
		c.warmEnergy += d.WarmupEnergyJ
	case d.Delta < 0:
		c.scaleDowns++
	}
	if len(d.Reason) > 8 && d.Reason[:8] == "degrade:" {
		c.degrades++
		c.modePath = append(c.modePath, d.Mode)
	}
	if len(d.Reason) > 8 && d.Reason[:8] == "recover:" {
		c.recovers++
		c.modePath = append(c.modePath, d.Mode)
	}
	if d.Mode > c.deepest {
		c.deepest = d.Mode
	}
	return d
}

// Mode returns the current degradation-ladder rung.
func (c *Controller) Mode() Mode {
	if c == nil {
		return ModeNormal
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// Decisions returns a copy of every decision emitted so far, in order.
func (c *Controller) Decisions() []Decision {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// Digest returns the FNV-1a fold of the decision stream so far. Two
// same-seed runs must agree on it.
func (c *Controller) Digest() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.digest
}

// Report snapshots run totals.
func (c *Controller) Report() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Report{
		Ticks:         c.tick,
		Decisions:     len(c.decisions),
		ScaleUps:      c.scaleUps,
		ScaleDowns:    c.scaleDowns,
		DegradeSteps:  c.degrades,
		RecoverSteps:  c.recovers,
		DeepestMode:   c.deepest,
		FinalMode:     c.mode,
		FinalReplicas: c.lastReplicas,
		WarmupTime:    c.warmTime,
		WarmupEnergyJ: c.warmEnergy,
		Digest:        c.digest,
		ModePath:      append([]Mode(nil), c.modePath...),
	}
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func (c *Controller) mix(d Decision) {
	c.mixUint(uint64(d.Tick))
	c.mixUint(uint64(d.At))
	c.mixUint(uint64(int64(d.Delta)))
	c.mixUint(uint64(int64(d.Replicas)))
	c.mixUint(uint64(int64(d.Mode)))
	for i := 0; i < len(d.Reason); i++ {
		c.digest = (c.digest ^ uint64(d.Reason[i])) * fnvPrime
	}
}

func (c *Controller) mixUint(v uint64) {
	for i := 0; i < 8; i++ {
		c.digest = (c.digest ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}
