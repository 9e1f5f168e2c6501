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
// Determinism: an objective counts events by (bucket, good) only, in
// runs kept sorted by bucket, so concurrent recorders in any
// interleaving leave the same counts, and a snapshot depends only on the
// event multiset — which the pipeline's seeded determinism guarantees.
// Snapshots sort objectives by name.
//
// Memory: an objective counts events in 1-second buckets of simulated
// time, one run per bucket and verdict, and folds the buckets no window
// can reach again into whole-run totals. A fold keeps at most the
// 2 × 1 801 runs of the last half hour (about 58 KB) and the next comes
// at twice the runs kept, so an objective holds at most 7 204 runs on any
// clock: a server answering millions of requests at one simulated
// instant keeps one, a clock advancing 1 ms an event keeps one per
// thousand events, and a job whose events span hours keeps the last half
// hour's seconds. A window counts the buckets that start inside it; the
// horizon and the whole-run totals stay exact.
//
// Every method is nil-safe: a nil *Evaluator or nil *Objective no-ops,
// so disabled SLO accounting costs callers one pointer check.
package slo

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// The alert rule every objective shares. The fast/slow window pair
// follows the SRE multi-window rule scaled to the emulator's job lengths
// (simulated tuning runs span minutes to hours): a sustained burn must
// show over the last half hour and still be burning over the last five
// minutes. 14.4 is the classic page threshold — at that rate a 30-day
// error budget is gone in two days.
const (
	fastWindow    = 5 * time.Minute
	slowWindow    = 30 * time.Minute
	burnThreshold = 14.4
)

// windows are the alert windows, ascending, each reported in turn.
var windows = [...]time.Duration{fastWindow, slowWindow}

// bucket is the resolution an objective counts at. It divides both
// windows, so a window always spans a whole number of buckets.
const bucket = time.Second

// Spec declares one objective; every objective alerts on the same
// windows and burn threshold.
type Spec struct {
	// Name identifies the objective; registering the same name twice
	// returns the existing objective.
	Name string
	// Description is a human-readable statement of the objective.
	Description string
	// Target is the required good-event fraction in (0, 1), e.g. 0.99
	// for "99% of requests must be good". The error budget is 1 − Target.
	Target float64
}

// event is a run of equal observations in one bucket of the simulated
// clock: t is the bucket's start, n > 0 counts n good events in it, n < 0
// counts −n bad ones. It stays 16 bytes because a tuner's events mostly
// fall in buckets of their own, where a run with both counts would carry
// a third word for nothing.
type event struct {
	t time.Duration
	n int64
}

// compareRuns orders runs by bucket, and a good run before a bad one in
// the same bucket.
func compareRuns(a, b event) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	switch aGood, bGood := a.n > 0, b.n > 0; {
	case aGood == bGood:
		return 0
	case aGood:
		return -1
	}
	return 1
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

	mu sync.Mutex
	// runs are sorted by compareRuns, at most one per bucket and verdict.
	runs []event
	// max is the latest event time recorded. Every snapshot's horizon is
	// at least max, so a run older than max − slowWindow lies before the
	// start of every window from now on and is folded into oldN and
	// oldBad.
	max          time.Duration
	foldAt       int // fold when len(runs) reaches it
	oldN, oldBad int64
}

// Record counts one event at simulated time t in its bucket's run. It
// adds to the last run when the event belongs to it, and appends a run
// when the event sorts after it: the common cases, in the order the
// pipeline's clocks advance. An event that sorts before the last run
// finds its run by binary search, or inserts one. Only a new run can
// allocate, and only until the objective's first folds have sized its
// slice. A nil objective no-ops.
func (o *Objective) Record(t time.Duration, good bool) {
	if o == nil {
		return
	}
	r := event{t: t.Truncate(bucket), n: 1}
	if !good {
		r.n = -1
	}
	o.mu.Lock()
	o.max = max(o.max, t)
	switch k := len(o.runs) - 1; {
	case k >= 0 && compareRuns(o.runs[k], r) == 0:
		o.runs[k].n += r.n
	case k < 0 || compareRuns(o.runs[k], r) < 0:
		o.runs = append(o.runs, r)
	default:
		if i, found := slices.BinarySearchFunc(o.runs, r, compareRuns); found {
			o.runs[i].n += r.n
		} else {
			o.runs = slices.Insert(o.runs, i, r)
		}
	}
	if len(o.runs) >= o.foldAt {
		o.fold()
	}
	o.mu.Unlock()
}

// fold moves every run whose bucket starts before max − slowWindow into
// the whole-run totals, keeping the rest in order, and sets the next fold
// at twice the runs kept, so folding costs O(1) per run recorded. It
// makes room for the runs up to that fold at once: between folds Record
// never regrows the slice, so the runs a window keeps cost them about
// twice over rather than the five-fold of append's 1.25× steps. The
// caller holds o.mu.
func (o *Objective) fold() {
	line := o.max - slowWindow
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
	o.runs = slices.Grow(o.runs, o.foldAt-len(o.runs))
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
	e.mu.Lock()
	defer e.mu.Unlock()
	if o, ok := e.objs[spec.Name]; ok {
		return o
	}
	o := &Objective{spec: spec, foldAt: minFold}
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

// Alert is one objective's alert state: what the flight recorder's edge
// detector polls at every rung boundary.
type Alert struct {
	Name     string
	Alerting bool
	// Events and Errors cover the whole run, as in ObjectiveReport.
	Events, Errors int64
}

// Alerts appends every objective's alert state to dst, sorted by name,
// and returns the extended slice: what Snapshot reports of each
// objective's Name, Alerting, Events and Errors, from the same
// arithmetic, but read in place under the objectives' locks, so a dst
// with room allocates nothing. A nil evaluator appends nothing.
func (e *Evaluator) Alerts(dst []Alert) []Alert {
	if e == nil {
		return dst
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Every objective stays locked until its state is read, so the
	// horizon and the counts are one cut. Record takes one objective's
	// lock and nothing else, so holding them all cannot deadlock.
	var horizon time.Duration
	for _, o := range e.objs {
		o.mu.Lock()
		horizon = max(horizon, o.max)
	}
	for _, o := range e.objs {
		c := tally{runs: o.runs, events: o.oldN, errors: o.oldBad}
		a := Alert{Name: o.spec.Name}
		a.Events, a.Errors = c.totals()
		a.Alerting = a.Events > 0
		for _, w := range windows {
			if c.window(w, horizon, 1-o.spec.Target).BurnRate < burnThreshold {
				a.Alerting = false
			}
		}
		o.mu.Unlock()
		dst = append(dst, a)
	}
	slices.SortFunc(dst, func(a, b Alert) int { return strings.Compare(a.Name, b.Name) })
	return dst
}

// tally is one objective's counts: its runs, and the events and errors
// folded out of them.
type tally struct {
	runs           []event
	events, errors int64
}

// totals counts the whole run's events and errors.
func (c tally) totals() (events, errors int64) {
	events, errors = c.events, c.errors
	for _, r := range c.runs {
		n, bad := r.counts()
		events += n
		errors += bad
	}
	return events, errors
}

// window evaluates the alert window of length w ending at horizon,
// against the error budget. A bucket counts when it starts inside the
// window.
func (c tally) window(w, horizon time.Duration, budget float64) WindowBurn {
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
	return wb
}

// evaluate computes one objective's report from its counts.
func evaluate(spec Spec, c tally, horizon time.Duration) ObjectiveReport {
	rep := ObjectiveReport{
		Name:          spec.Name,
		Description:   spec.Description,
		Target:        spec.Target,
		BurnThreshold: burnThreshold,
		GoodFraction:  1,
	}
	budget := 1 - spec.Target
	rep.Events, rep.Errors = c.totals()
	if rep.Events > 0 {
		errRate := float64(rep.Errors) / float64(rep.Events)
		rep.GoodFraction = 1 - errRate
		rep.ErrorBudgetUsed = errRate / budget
	}
	rep.Alerting = rep.Events > 0
	for _, w := range windows {
		wb := c.window(w, horizon, budget)
		if wb.BurnRate < burnThreshold {
			rep.Alerting = false
		}
		rep.Windows = append(rep.Windows, wb)
	}
	return rep
}
