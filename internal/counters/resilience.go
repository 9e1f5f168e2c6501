package counters

import (
	"strings"

	"edgetune/internal/obs"
)

const faultPrefix = "fault."

// row ties a counter's registry cell to its typed view: the generic
// metrics snapshot and ResilienceSnapshot both read the cell called name.
// declare adds a row and returns its index, which Add… methods pass to add.
type row struct {
	name  string
	field func(*ResilienceSnapshot) *int64
}

var rows []row

func declare(name string, field func(*ResilienceSnapshot) *int64) int {
	rows = append(rows, row{name, field})
	return len(rows) - 1
}

// The counters, each declared once: index, registry name, and field of a
// ResilienceSnapshot. Its Add… method says what it counts.
var (
	retries          = declare("resilience.retries", func(s *ResilienceSnapshot) *int64 { return &s.Retries })
	breakerOpens     = declare("resilience.breaker.opens", func(s *ResilienceSnapshot) *int64 { return &s.BreakerOpens })
	breakerHalfOpens = declare("resilience.breaker.half-opens", func(s *ResilienceSnapshot) *int64 { return &s.BreakerHalfOpens })
	breakerCloses    = declare("resilience.breaker.closes", func(s *ResilienceSnapshot) *int64 { return &s.BreakerCloses })
	degraded         = declare("resilience.degraded", func(s *ResilienceSnapshot) *int64 { return &s.Degraded })
	resumedRungs     = declare("resilience.resumed-rungs", func(s *ResilienceSnapshot) *int64 { return &s.ResumedRungs })
	shed             = declare("serving.shed", func(s *ResilienceSnapshot) *int64 { return &s.Shed })
	rateLimited      = declare("serving.rate-limited", func(s *ResilienceSnapshot) *int64 { return &s.RateLimited })
	preempted        = declare("serving.preempted", func(s *ResilienceSnapshot) *int64 { return &s.Preempted })
	hedges           = declare("serving.hedges", func(s *ResilienceSnapshot) *int64 { return &s.Hedges })
	hedgeWins        = declare("serving.hedge-wins", func(s *ResilienceSnapshot) *int64 { return &s.HedgeWins })
	quarantines      = declare("serving.quarantines", func(s *ResilienceSnapshot) *int64 { return &s.Quarantines })
	probes           = declare("serving.probes", func(s *ResilienceSnapshot) *int64 { return &s.Probes })
	drained          = declare("serving.drained", func(s *ResilienceSnapshot) *int64 { return &s.Drained })
)

// Resilience accumulates the fault-tolerance counters of a tuning job:
// injected faults by class, retries, circuit-breaker transitions,
// degraded outcomes, and checkpoint-resume savings. It is a typed
// facade over an obs.Registry — the same cells surface in the generic
// metrics snapshot under "resilience.*", "serving.*", and "fault.*"
// names. All methods are safe for concurrent use and nil-safe, so call
// sites need no guards when resilience accounting is disabled.
type Resilience struct {
	reg   *obs.Registry
	cells []*obs.Counter // cells[i] is rows[i]'s
}

// NewResilience returns an empty counter set on a private registry.
func NewResilience() *Resilience { return NewResilienceOn(nil) }

// NewResilienceOn returns a counter set registered on reg, so the
// resilience counters appear alongside the rest of the job's metrics.
// A nil reg gets a private registry.
func NewResilienceOn(reg *obs.Registry) *Resilience {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Resilience{reg: reg, cells: make([]*obs.Counter, len(rows))}
	for i, row := range rows {
		r.cells[i] = reg.Counter(row.name)
	}
	return r
}

// Registry exposes the backing registry (nil for a nil receiver), so
// callers can register further instruments next to these counters.
func (r *Resilience) Registry() *obs.Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// RecordFault counts one injected fault of the named class.
func (r *Resilience) RecordFault(class string) {
	if r != nil {
		r.reg.Counter(faultPrefix + class).Inc()
	}
}

func (r *Resilience) add(i int, n int64) {
	if r != nil {
		r.cells[i].Add(n)
	}
}

// Each Add… method counts one event of the kind its comment gives.
func (r *Resilience) AddRetry()               { r.add(retries, 1) }          // a trial re-run or an inference request re-attempt
func (r *Resilience) AddBreakerOpen()         { r.add(breakerOpens, 1) }     // closed→open, or half-open→open
func (r *Resilience) AddBreakerHalfOpen()     { r.add(breakerHalfOpens, 1) } // open→half-open
func (r *Resilience) AddBreakerClose()        { r.add(breakerCloses, 1) }    // half-open→closed
func (r *Resilience) AddDegraded()            { r.add(degraded, 1) }         // an outcome served from a fallback (store entry, perfmodel estimate), not measured
func (r *Resilience) AddResumedRungs(n int64) { r.add(resumedRungs, n) }     // n rungs skipped because a checkpoint already held their results
func (r *Resilience) AddShed()                { r.add(shed, 1) }             // a submission rejected at the gate: queue full, degradation ladder, injected burst
func (r *Resilience) AddRateLimited()         { r.add(rateLimited, 1) }      // a submission rejected by the per-client token bucket
func (r *Resilience) AddPreempted()           { r.add(preempted, 1) }        // a queued background request evicted for a recommendation-critical one
func (r *Resilience) AddHedge()               { r.add(hedges, 1) }           // a speculative re-issue to a second device (primary straggled or failed transiently)
func (r *Resilience) AddHedgeWin()            { r.add(hedgeWins, 1) }        // a hedge whose secondary attempt produced the winning result
func (r *Resilience) AddQuarantine()          { r.add(quarantines, 1) }      // a device entering the quarantined state
func (r *Resilience) AddProbe()               { r.add(probes, 1) }           // a probe request routed to a quarantined device to test for recovery
func (r *Resilience) AddDrained()             { r.add(drained, 1) }          // an in-flight request completed during graceful shutdown, after intake closed

// FaultCount is one (class, count) pair of a snapshot, sorted by class.
type FaultCount struct {
	Class string `json:"class"`
	Count int64  `json:"count"`
}

// ResilienceSnapshot is a point-in-time copy of the counters, with
// deterministic (sorted) fault ordering so reports serialise
// byte-identically across same-seed runs.
type ResilienceSnapshot struct {
	Faults           []FaultCount `json:"faults,omitempty"`
	TotalFaults      int64        `json:"totalFaults"`
	Retries          int64        `json:"retries"`
	BreakerOpens     int64        `json:"breakerOpens"`
	BreakerHalfOpens int64        `json:"breakerHalfOpens"`
	BreakerCloses    int64        `json:"breakerCloses"`
	Degraded         int64        `json:"degraded"`
	ResumedRungs     int64        `json:"resumedRungs"`

	Shed        int64 `json:"shed"`
	RateLimited int64 `json:"rateLimited"`
	Preempted   int64 `json:"preempted"`
	Hedges      int64 `json:"hedges"`
	HedgeWins   int64 `json:"hedgeWins"`
	Quarantines int64 `json:"quarantines"`
	Probes      int64 `json:"probes"`
	Drained     int64 `json:"drained"`
}

// FaultCount reports the count for one class (0 if never injected).
func (s ResilienceSnapshot) FaultCount(class string) int64 {
	for _, f := range s.Faults {
		if f.Class == class {
			return f.Count
		}
	}
	return 0
}

// Snapshot copies the current counters (all zero for a nil receiver).
func (r *Resilience) Snapshot() ResilienceSnapshot {
	var s ResilienceSnapshot
	if r == nil {
		return s
	}
	for _, name := range r.reg.CounterNames() { // sorted, and so the classes
		class, ok := strings.CutPrefix(name, faultPrefix)
		if n := r.reg.Counter(name).Value(); ok && n != 0 {
			s.Faults = append(s.Faults, FaultCount{Class: class, Count: n})
			s.TotalFaults += n
		}
	}
	for i, c := range r.cells {
		*rows[i].field(&s) = c.Value()
	}
	return s
}

// Restore overwrites the counters from a snapshot, used when resuming a
// checkpointed job so that the final report's totals cover the whole
// job rather than only the resumed portion.
func (r *Resilience) Restore(s ResilienceSnapshot) {
	if r == nil {
		return
	}
	// Zero fault classes the snapshot no longer carries before loading
	// the saved counts, so Restore fully replaces the fault state.
	for _, name := range r.reg.CounterNames() {
		if strings.HasPrefix(name, faultPrefix) {
			r.reg.Counter(name).Set(0)
		}
	}
	for _, f := range s.Faults {
		r.reg.Counter(faultPrefix + f.Class).Set(f.Count)
	}
	for i, c := range r.cells {
		c.Set(*rows[i].field(&s))
	}
}
