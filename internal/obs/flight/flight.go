// Package flight is the pipelines' always-on flight recorder: a
// preallocated fixed-slot ring buffer that continuously captures a
// compact event stream — span completions, SLO objective state
// transitions, autoscale decisions and ladder steps, admission
// rejections, breaker and health transitions, WAL
// append/recovery/shipping events, shard failover — stamped on the
// simulated clock with FNV-derived IDs. Recording is allocation-free
// in steady state: each event is a value copied into its slot, so the
// recorder can ride inside every run at fixed memory cost.
//
// A trigger framework snapshots the ring into incident dossiers:
// self-contained JSON artefacts holding the trigger, the event window
// timeline, metrics and SLO snapshots, a critical-path/queue
// mini-report computed over just the window, and a digest. Dossiers
// are built after the run quiesces and their events are sorted by
// (time, ID), so same-seed runs emit byte-identical dossiers even
// though goroutine arrival order varies — the same discipline the
// tracer uses for its JSONL export.
//
// A nil *Recorder no-ops on every method, so instrumentation sites
// need no guards when the flight recorder is disabled.
package flight

import (
	"sort"
	"sync"
	"time"

	"edgetune/internal/obs/slo"
	"edgetune/internal/sim"
)

// Event kinds. Call sites pass these constants (and pre-existing
// strings such as device names) so Record never allocates.
const (
	// KindSpan is a completed trace span: Subject the span name, A the
	// track, B the span duration in nanoseconds.
	KindSpan = "span"
	// KindSLO is an objective alert edge: Subject the objective name,
	// Detail "alert" (rising) or "clear" (falling).
	KindSLO = "slo"
	// KindAutoscale is one controller decision applied to the pool:
	// Subject the resulting mode, Detail the controller's reason, A the
	// replica delta, B the replica count after the decision.
	KindAutoscale = "autoscale"
	// KindLadder is a degradation-ladder transition: Subject the new
	// mode, Detail "degrade" or "recover".
	KindLadder = "ladder"
	// KindAdmission is a rejected submission: Subject the rejection
	// class ("shed-burst", "shed" for a full queue, "server-closed",
	// "no-healthy-device"), Detail the request's signature.
	KindAdmission = "admission"
	// KindBreaker is a circuit-breaker state change: Subject the
	// device, Detail the new state.
	KindBreaker = "breaker"
	// KindHealth is a health-manager state change: Subject the device
	// (or "pool" for a mass failure), Detail the new state, A the
	// device count for pool-wide events.
	KindHealth = "health"
	// KindWAL is a durable-store journal event: Subject "append" (A the
	// append sequence, B the frame bytes) or "recover" (A records
	// replayed, B records quarantined).
	KindWAL = "wal"
	// KindShip is a WAL frame shipped toward a follower: Subject the
	// disposition ("shipped", "dropped", "lagged", "flushed"), A the
	// shipped sequence.
	KindShip = "ship"
	// KindFailover is a shard promoting its follower: Subject the
	// shard name.
	KindFailover = "failover"
	// KindTrigger marks a trigger firing inside the stream itself, so
	// the timeline shows what tripped relative to its surroundings.
	KindTrigger = "trigger"
)

// Trigger kinds: the anomalies that snapshot the ring into a dossier.
const (
	// TriggerSLOAlert fires on an objective's alert rising edge.
	TriggerSLOAlert = "slo-alert"
	// TriggerLadder fires when the degradation ladder engages: it
	// switches hedging off, leaving normal service.
	TriggerLadder = "ladder-engaged"
	// TriggerFailover fires when a shard fails over to its follower.
	TriggerFailover = "shard-failover"
	// TriggerSalvage fires when crash recovery had to quarantine
	// records or truncate a torn WAL tail.
	TriggerSalvage = "crash-salvage"
	// TriggerMassFail fires when the injected mass-device-failure
	// quarantines the pool.
	TriggerMassFail = "mass-device-fail"
	// TriggerManual is the operator-requested dossier.
	TriggerManual = "manual"
)

// Event is one flight-recorder entry. Events are values: Record copies
// them into preallocated slots, never allocating in steady state. The
// ID is derived from the event's own fields (FNV-1a), not from arrival
// order, so sorting by (Time, ID) yields the same byte stream for
// same-seed runs regardless of goroutine interleaving.
type Event struct {
	ID      uint64        `json:"id"`
	Time    time.Duration `json:"tNs"`
	Kind    string        `json:"kind"`
	Subject string        `json:"subject,omitempty"`
	Detail  string        `json:"detail,omitempty"`
	A       int64         `json:"a,omitempty"`
	B       int64         `json:"b,omitempty"`
}

// Trigger is one recorded anomaly, in firing order. Seq disambiguates
// repeated firings of the same kind.
type Trigger struct {
	ID     uint64        `json:"id"`
	Kind   string        `json:"kind"`
	At     time.Duration `json:"atNs"`
	Detail string        `json:"detail,omitempty"`
	Seq    int           `json:"seq"`
}

const (
	// DefaultSlots sizes the ring when the caller passes 0: generous
	// enough that the chaos-scale runs never wrap (wrap order depends
	// on goroutine arrival, so a non-wrapping ring is also the
	// byte-determinism guarantee).
	DefaultSlots = 1 << 16
	// maxTriggers bounds the dossier count per run; later firings are
	// counted but produce no dossier.
	maxTriggers = 32
)

// Recorder is the fixed-slot ring. All methods are safe for concurrent
// use and no-op on a nil receiver.
type Recorder struct {
	mu       sync.Mutex
	slots    []Event
	total    uint64 // events ever recorded; slots[total%len] is next
	triggers []Trigger
	lost     int // triggers beyond maxTriggers
	alerting map[string]bool
}

// New returns a recorder with the given slot count (0 or negative gets
// DefaultSlots). Every slot is allocated up front; Record never grows
// the buffer.
func New(slots int) *Recorder {
	if slots <= 0 {
		slots = DefaultSlots
	}
	return &Recorder{
		slots:    make([]Event, slots),
		triggers: make([]Trigger, 0, maxTriggers),
		alerting: make(map[string]bool, 8),
	}
}

// Record appends one event to the ring, overwriting the oldest entry
// when full. It is the steady-state hot path: no allocations, one
// mutex round trip, one slot copy.
func (r *Recorder) Record(at time.Duration, kind, subject, detail string, a, b int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordLocked(at, kind, subject, detail, a, b)
	r.mu.Unlock()
}

func (r *Recorder) recordLocked(at time.Duration, kind, subject, detail string, a, b int64) {
	slot := &r.slots[r.total%uint64(len(r.slots))]
	slot.Time = at
	slot.Kind = kind
	slot.Subject = subject
	slot.Detail = detail
	slot.A = a
	slot.B = b
	slot.ID = eventID(at, kind, subject, detail, a, b)
	r.total++
}

// Trigger fires one anomaly: it records a KindTrigger event in the
// stream and remembers the trigger so Dossiers can snapshot its
// window. Firings beyond maxTriggers are counted as lost.
func (r *Recorder) Trigger(kind string, at time.Duration, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.triggerLocked(kind, at, detail)
	r.mu.Unlock()
}

func (r *Recorder) triggerLocked(kind string, at time.Duration, detail string) {
	r.recordLocked(at, KindTrigger, kind, detail, 0, 0)
	if len(r.triggers) >= maxTriggers {
		r.lost++
		return
	}
	seq := len(r.triggers)
	r.triggers = append(r.triggers, Trigger{
		ID:     eventID(at, KindTrigger, kind, detail, int64(seq), 0),
		Kind:   kind,
		At:     at,
		Detail: detail,
		Seq:    seq,
	})
}

// ManualTrigger fires the operator trigger, stamped at the latest
// recorded event time (the recorder's notion of "now" on the simulated
// clock).
func (r *Recorder) ManualTrigger(detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	var at time.Duration
	n := r.retainedLocked()
	for i := 0; i < n; i++ {
		if t := r.slotAt(i).Time; t > at {
			at = t
		}
	}
	r.triggerLocked(TriggerManual, at, detail)
	r.mu.Unlock()
}

// ObserveSLO feeds the objectives' alert states (slo.Evaluator.Alerts)
// through the per-objective alert edge detector: a rising edge records
// a KindSLO "alert" event and fires TriggerSLOAlert; a falling edge
// records "clear". Callers poll at deterministic points (rung
// boundaries), so the edges land at deterministic simulated times.
func (r *Recorder) ObserveSLO(at time.Duration, alerts []slo.Alert) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, o := range alerts {
		was := r.alerting[o.Name]
		if o.Alerting == was {
			continue
		}
		r.alerting[o.Name] = o.Alerting
		if o.Alerting {
			r.recordLocked(at, KindSLO, o.Name, "alert", o.Events, o.Errors)
			r.triggerLocked(TriggerSLOAlert, at, o.Name)
		} else {
			r.recordLocked(at, KindSLO, o.Name, "clear", o.Events, o.Errors)
		}
	}
	r.mu.Unlock()
}

// retainedLocked is how many slots currently hold events.
func (r *Recorder) retainedLocked() int {
	if r.total < uint64(len(r.slots)) {
		return int(r.total)
	}
	return len(r.slots)
}

// slotAt indexes the retained events in arrival order (0 = oldest);
// callers hold r.mu.
func (r *Recorder) slotAt(i int) *Event {
	if r.total <= uint64(len(r.slots)) {
		return &r.slots[i]
	}
	return &r.slots[(r.total+uint64(i))%uint64(len(r.slots))]
}

// Events copies the retained ring, sorted by (Time, ID) so the view is
// independent of goroutine arrival order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := r.retainedLocked()
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = *r.slotAt(i)
	}
	r.mu.Unlock()
	sortEvents(out)
	return out
}

// Triggers copies the fired triggers in firing order.
func (r *Recorder) Triggers() []Trigger {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Trigger(nil), r.triggers...)
}

// Stats reports the ring geometry: slot count, events ever recorded,
// and events overwritten by wrap.
func (r *Recorder) Stats() (slots int, recorded, dropped uint64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slots = len(r.slots)
	recorded = r.total
	if r.total > uint64(len(r.slots)) {
		dropped = r.total - uint64(len(r.slots))
	}
	return slots, recorded, dropped
}

// sortEvents orders by (Time, ID, Kind, Subject, Detail, A, B) — a
// total order over event values, so identical multisets serialise
// byte-identically whatever order they were recorded in.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// eventID mirrors the tracer's structural ID derivation, so flight event
// IDs are pure functions of the event fields; 0xff separates the strings.
func eventID(at time.Duration, kind, subject, detail string, a, b int64) uint64 {
	h := sim.HashOffset
	for _, s := range [...]string{kind, subject, detail} {
		h = sim.HashString(sim.HashString(h, s), "\xff")
	}
	for _, v := range [...]int64{int64(at), a, b} {
		h = sim.HashUint64(h, uint64(v))
	}
	if h == 0 {
		h = 1
	}
	return h
}
