// Package autoscale implements a deterministic, sim-clock autoscaler
// for a simulated device pool. No server wires it: the inference server
// tunes each request on its one device (the paper's §3.4), and a job
// never holds more than one request in it. The package's own tests,
// the autoscale.evaluate hot-loop row and the BenchmarkAutoscaleDecision
// experiment are what run it.
//
// The controller is a pure state machine: it is evaluated exactly once
// per request submission (the "tick"), and every input it sees —
// in-system depth, admission wait, replica counts, capacity good/bad
// events — is stamped deterministically at submission time on the
// simulated clock. Two same-seed runs therefore produce byte-identical
// decision streams, which the controller folds into an FNV-1a digest
// so tests and CI can compare whole runs with a single value.
//
// Scaling up is never free: each decision to add a replica carries a
// warm-up cost (time and energy), mirroring the warm-up-aware
// scaling argument in "On the Sustainability of AI Inferences in the
// Edge". Scaling down is hysteresis-bounded so a single calm tick
// cannot flap capacity away.
package autoscale

import (
	"fmt"
	"sync"
	"time"
)

// Config bounds the replica count; the rest of the control loop is
// the package's constants. The zero value of a field selects its
// default; New rejects a bound out of range.
type Config struct {
	// Min and Max bound the replica count. Defaults: 1 and 4.
	Min int
	Max int
}

// CapacityTarget is the capacity objective's success target: the
// controller's burn rate divides its windowed bad-event rate by the
// error budget 1 − CapacityTarget. Typed, so that budget is the float64
// difference an SLO evaluator computes for the same target.
const CapacityTarget float64 = 0.95

// The control loop. Saturation (in-system depth over queue limit) at or
// above scaleUpAt is hot, at or below scaleDownAt calm; so is a burn
// rate at or above burnHot (the standing page-worthy threshold), at or
// below burnCalm (burning no faster than budget). The burn rate covers
// the last burnWindow submissions. Each scale-down waits for
// hysteresisTicks consecutive calm ticks. An added replica
// is not routable until warmupTime of simulated time has passed, and
// bills warmupEnergyJ joules to the run: the edge platform's replica
// start-up cost.
const (
	scaleUpAt       = 0.75
	scaleDownAt     = 0.25
	burnHot         = 14.4
	burnCalm        = 1
	burnWindow      = 32
	hysteresisTicks = 8
	warmupTime      = 30 * time.Second
	warmupEnergyJ   = 150
)

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

// Decision is one emitted control action. Delta is +1 for a scale-up
// and -1 for a scale-down.
type Decision struct {
	Tick     int64
	At       time.Duration
	Delta    int
	Replicas int // target replica count after the decision
	Reason   string
	// WarmupTime and WarmupEnergyJ are the costs charged by this
	// decision (zero unless Delta > 0).
	WarmupTime    time.Duration
	WarmupEnergyJ float64
}

// Report is a summary snapshot of a controller's run. Every decision
// is a scale-up or a scale-down, so Decisions = ScaleUps + ScaleDowns.
type Report struct {
	Ticks         int64
	Decisions     int
	ScaleUps      int
	ScaleDowns    int
	FinalReplicas int
	WarmupTime    time.Duration
	WarmupEnergyJ float64
	Digest        uint64
}

// Controller is the autoscaling state machine. All methods are safe
// for concurrent use; determinism is the caller's contract (evaluate
// in submission order).
type Controller struct {
	mu  sync.Mutex
	cfg Config

	tick   int64
	window [burnWindow]bool // ring buffer of capacity good/bad events
	wpos   int
	wfill  int
	bad    int // bad events currently in the window

	calm int // consecutive calm ticks

	lastReplicas int
	decisions    int
	digest       uint64

	scaleUps, scaleDowns int
	warmTime             time.Duration
	warmEnergy           float64
}

// New builds a controller from cfg (zero bounds defaulted) or returns
// a validation error.
func New(cfg Config) (*Controller, error) {
	if cfg.Min == 0 {
		cfg.Min = 1
	}
	if cfg.Max == 0 {
		cfg.Max = 4
	}
	switch {
	case cfg.Min < 1:
		return nil, fmt.Errorf("autoscale: min replicas %d < 1", cfg.Min)
	case cfg.Max < cfg.Min:
		return nil, fmt.Errorf("autoscale: max replicas %d < min %d", cfg.Max, cfg.Min)
	}
	return &Controller{
		cfg:          cfg,
		digest:       fnvOffset,
		lastReplicas: cfg.Min,
	}, nil
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
	case sat >= scaleUpAt:
		reason = "saturation"
	case 2*sig.QueuedAhead >= limit:
		reason = "admission-wait"
	case burn >= burnHot:
		reason = "burn"
	}
	hot := reason != ""
	calm := !hot &&
		sat <= scaleDownAt &&
		burn <= burnCalm &&
		2*sig.Healthy >= sig.Replicas

	switch {
	case hot:
		c.calm = 0
		if sig.Replicas < c.cfg.Max {
			d := c.emit(Decision{
				At:            sig.At,
				Delta:         1,
				Replicas:      sig.Replicas + 1,
				Reason:        "scale-up:" + reason,
				WarmupTime:    warmupTime,
				WarmupEnergyJ: warmupEnergyJ,
			})
			return d, true
		}
	case calm:
		c.calm++
		if c.calm >= hysteresisTicks && sig.Replicas > c.cfg.Min {
			c.calm = 0
			d := c.emit(Decision{
				At:       sig.At,
				Delta:    -1,
				Replicas: sig.Replicas - 1,
				Reason:   "scale-down:idle",
			})
			return d, true
		}
	default:
		// Neither hot nor calm: the system is in between. Reset the
		// streak so flapping load cannot accumulate a stale one.
		c.calm = 0
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
	return errRate / (1 - CapacityTarget)
}

func (c *Controller) emit(d Decision) Decision {
	d.Tick = c.tick
	c.decisions++
	c.mix(d)
	switch {
	case d.Delta > 0:
		c.scaleUps++
		c.warmTime += d.WarmupTime
		c.warmEnergy += d.WarmupEnergyJ
	case d.Delta < 0:
		c.scaleDowns++
	}
	return d
}

// Report snapshots run totals. Its Digest is the FNV-1a fold of the
// decision stream so far; two same-seed runs must agree on it.
func (c *Controller) Report() Report {
	if c == nil {
		return Report{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Report{
		Ticks:         c.tick,
		Decisions:     c.decisions,
		ScaleUps:      c.scaleUps,
		ScaleDowns:    c.scaleDowns,
		FinalReplicas: c.lastReplicas,
		WarmupTime:    c.warmTime,
		WarmupEnergyJ: c.warmEnergy,
		Digest:        c.digest,
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
