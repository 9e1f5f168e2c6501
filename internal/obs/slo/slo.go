// Package slo evaluates declarative service-level objectives over the
// simulated clock, stdlib-only and deterministic under the same-seed
// contract.
//
// An Objective counts good/bad events, each stamped with a simulated
// timestamp by the instrumentation site (never a wall-clock read). A
// Snapshot evaluates every objective at the horizon — the latest event
// time seen by any objective — computing the overall compliance plus a
// burn rate per alert window: the fraction of the error budget
// (1 − target) consumed by the window's error rate. An alert fires when
// the burn rate meets the threshold in every window simultaneously (the
// multi-window rule: the long window proves the burn is sustained, the
// short one that it is still happening).
//
// Determinism: events are aggregated by (timestamp, good) only, so
// concurrent recorders in any interleaving yield the same snapshot as
// long as the event multiset is the same — which the pipeline's seeded
// determinism guarantees. Snapshots sort objectives by name.
//
// Memory: an objective keeps runs of equal events, not the events, and
// folds the runs no window can reach again into whole-run totals, so a
// server answering millions of requests at one simulated instant keeps
// one run, and a job whose events carry distinct times keeps the runs of
// its longest window (at most twice that, between folds).
//
// Every method is nil-safe: a nil *Evaluator or nil *Objective no-ops,
// so disabled SLO accounting costs callers one pointer check.
package slo

import (
	"sort"
	"sync"
	"time"
)

// Default alert windows and burn threshold. The fast/slow pair follows
// the SRE multi-window rule scaled to the emulator's job lengths
// (simulated tuning runs span minutes to hours): a sustained burn must
// show over the last half hour and still be burning over the last five
// minutes. 14.4 is the classic page threshold — at that rate a 30-day
// error budget is gone in two days.
var (
	DefaultWindows = []time.Duration{5 * time.Minute, 30 * time.Minute}

	DefaultBurnThreshold = 14.4
)

// Spec declares one objective.
type Spec struct {
	// Name identifies the objective; registering the same name twice
	// returns the existing objective.
	Name string
	// Description is a human-readable statement of the objective.
	Description string
	// Target is the required good-event fraction in (0, 1), e.g. 0.99
	// for "99% of requests must be good". The error budget is 1 − Target.
	Target float64
	// Windows are the burn-rate alert windows, ascending; empty selects
	// DefaultWindows.
	Windows []time.Duration
	// BurnThreshold is the burn rate at which every window must burn for
	// the alert to fire; zero selects DefaultBurnThreshold.
	BurnThreshold float64
}

// event is a run of equal observations on the simulated clock: n > 0
// counts n good events at t, n < 0 counts −n bad ones. It stays 16 bytes
// because a tuner's events carry distinct times and never merge.
type event struct {
	t time.Duration
	n int64
}

// counts returns how many events the run holds and how many of them are
// bad.
func (e event) counts() (n, bad int64) {
	if e.n < 0 {
		return -e.n, -e.n
	}
	return e.n, 0
}

// minFold is the run count below which an objective never folds: a
// small objective keeps every run rather than scan them to save nothing.
const minFold = 256

// Objective accumulates events for one Spec. Safe for concurrent use.
type Objective struct {
	spec Spec
	span time.Duration // the longest window

	mu   sync.Mutex
	runs []event
	// max is the latest event time recorded. Every snapshot's horizon is
	// at least max, so a run older than max − span lies before the start
	// of every window from now on and is folded into oldN and oldBad.
	max          time.Duration
	foldAt       int // fold when len(runs) reaches it
	oldN, oldBad int64
}

// Record counts one event at simulated time t. It extends the last run
// when t and the verdict match it, and allocates nothing then. A nil
// objective no-ops.
func (o *Objective) Record(t time.Duration, good bool) {
	if o == nil {
		return
	}
	n := int64(1)
	if !good {
		n = -1
	}
	o.mu.Lock()
	if k := len(o.runs) - 1; k >= 0 && o.runs[k].t == t && (o.runs[k].n > 0) == good {
		o.runs[k].n += n
	} else {
		o.max = max(o.max, t)
		o.runs = append(o.runs, event{t: t, n: n})
		if len(o.runs) >= o.foldAt {
			o.fold()
		}
	}
	o.mu.Unlock()
}

// fold moves every run older than max − span into the whole-run totals,
// keeping the rest in order, and sets the next fold at twice the runs
// kept, so folding costs O(1) per run recorded. The caller holds o.mu.
func (o *Objective) fold() {
	line := o.max - o.span
	kept := o.runs[:0]
	for _, r := range o.runs {
		if r.t >= line {
			kept = append(kept, r)
			continue
		}
		n, bad := r.counts()
		o.oldN += n
		o.oldBad += bad
	}
	o.runs = kept
	o.foldAt = max(2*len(kept), minFold)
}

// Evaluator holds a set of objectives. A nil *Evaluator is a valid
// disabled evaluator: Register returns nil objectives whose Record
// no-ops, and Snapshot yields the zero value.
type Evaluator struct {
	mu   sync.Mutex
	objs map[string]*Objective
}

// NewEvaluator returns an empty evaluator.
func NewEvaluator() *Evaluator {
	return &Evaluator{objs: map[string]*Objective{}}
}

// Register adds an objective (idempotent by name: a second registration
// returns the first objective and ignores the new spec).
func (e *Evaluator) Register(spec Spec) *Objective {
	if e == nil {
		return nil
	}
	if spec.Target <= 0 || spec.Target >= 1 {
		spec.Target = 0.99
	}
	if len(spec.Windows) == 0 {
		spec.Windows = DefaultWindows
	}
	if spec.BurnThreshold <= 0 {
		spec.BurnThreshold = DefaultBurnThreshold
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if o, ok := e.objs[spec.Name]; ok {
		return o
	}
	o := &Objective{spec: spec, foldAt: minFold, span: spec.Windows[0]}
	for _, w := range spec.Windows {
		o.span = max(o.span, w)
	}
	e.objs[spec.Name] = o
	return o
}

// WindowBurn is one alert window's burn evaluation.
type WindowBurn struct {
	// Window is the window length; it is clamped to the horizon when the
	// run is shorter than the window.
	Window time.Duration `json:"windowNs"`
	// Events and Errors count the window's observations.
	Events int64 `json:"events"`
	Errors int64 `json:"errors"`
	// ErrorRate is Errors/Events (0 for an empty window).
	ErrorRate float64 `json:"errorRate"`
	// BurnRate is ErrorRate divided by the error budget: 1 means the
	// budget is being spent exactly as fast as the target allows.
	BurnRate float64 `json:"burnRate"`
}

// ObjectiveReport is one objective's evaluation.
type ObjectiveReport struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	// Events and Errors cover the whole run.
	Events int64 `json:"events"`
	Errors int64 `json:"errors"`
	// GoodFraction is the overall compliance (1 when no events).
	GoodFraction float64 `json:"goodFraction"`
	// ErrorBudgetUsed is the overall burn: the run's error rate over the
	// error budget; above 1 the objective is out of budget.
	ErrorBudgetUsed float64 `json:"errorBudgetUsed"`
	// BurnThreshold and Windows document the alert rule evaluated.
	BurnThreshold float64      `json:"burnThreshold"`
	Windows       []WindowBurn `json:"windows"`
	// Alerting reports a burn rate at or above the threshold in every
	// window simultaneously.
	Alerting bool `json:"alerting"`
}

// Snapshot is a point-in-time evaluation of every objective, sorted by
// name so serialisations are byte-stable across same-seed runs.
type Snapshot struct {
	// Horizon is the latest event time across all objectives: the
	// simulated instant the windows end at.
	Horizon    time.Duration     `json:"horizonNs"`
	Objectives []ObjectiveReport `json:"objectives,omitempty"`
}

// Objective returns the named objective report and whether it exists.
func (s Snapshot) Objective(name string) (ObjectiveReport, bool) {
	for _, o := range s.Objectives {
		if o.Name == name {
			return o, true
		}
	}
	return ObjectiveReport{}, false
}

// Alerting reports whether any objective's alert fires.
func (s Snapshot) Alerting() bool {
	for _, o := range s.Objectives {
		if o.Alerting {
			return true
		}
	}
	return false
}

// Snapshot evaluates every objective at the current horizon.
func (e *Evaluator) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{}
	}
	e.mu.Lock()
	objs := make([]*Objective, 0, len(e.objs))
	for _, o := range e.objs {
		objs = append(objs, o)
	}
	e.mu.Unlock()

	// The horizon is global so every objective's windows end at the same
	// simulated instant.
	var snap Snapshot
	tallies := make([]tally, len(objs))
	for i, o := range objs {
		o.mu.Lock()
		tallies[i] = tally{runs: append([]event(nil), o.runs...), events: o.oldN, errors: o.oldBad}
		snap.Horizon = max(snap.Horizon, o.max)
		o.mu.Unlock()
	}
	for i, o := range objs {
		snap.Objectives = append(snap.Objectives, evaluate(o.spec, tallies[i], snap.Horizon))
	}
	sort.Slice(snap.Objectives, func(i, j int) bool {
		return snap.Objectives[i].Name < snap.Objectives[j].Name
	})
	return snap
}

// tally is a copy of one objective's counts: its runs, and the events
// and errors folded out of them.
type tally struct {
	runs           []event
	events, errors int64
}

// evaluate computes one objective's report from its counts.
func evaluate(spec Spec, c tally, horizon time.Duration) ObjectiveReport {
	rep := ObjectiveReport{
		Name:          spec.Name,
		Description:   spec.Description,
		Target:        spec.Target,
		BurnThreshold: spec.BurnThreshold,
		GoodFraction:  1,
		Events:        c.events,
		Errors:        c.errors,
	}
	budget := 1 - spec.Target
	for _, r := range c.runs {
		n, bad := r.counts()
		rep.Events += n
		rep.Errors += bad
	}
	if rep.Events > 0 {
		errRate := float64(rep.Errors) / float64(rep.Events)
		rep.GoodFraction = 1 - errRate
		rep.ErrorBudgetUsed = errRate / budget
	}

	rep.Alerting = rep.Events > 0
	for _, w := range spec.Windows {
		if w > horizon {
			w = horizon
		}
		wb := WindowBurn{Window: w}
		from := horizon - w
		for _, r := range c.runs {
			if r.t < from {
				continue
			}
			n, bad := r.counts()
			wb.Events += n
			wb.Errors += bad
		}
		if wb.Events > 0 {
			wb.ErrorRate = float64(wb.Errors) / float64(wb.Events)
			wb.BurnRate = wb.ErrorRate / budget
		}
		if wb.BurnRate < spec.BurnThreshold {
			rep.Alerting = false
		}
		rep.Windows = append(rep.Windows, wb)
	}
	if len(spec.Windows) == 0 {
		rep.Alerting = false
	}
	return rep
}
