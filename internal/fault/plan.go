package fault

import (
	"fmt"
	"sort"
)

// Event is one scheduled fault: the decision for exactly this
// (Class, Site, Attempt) tuple fires when the injector consults it,
// regardless of the class's probability. Events are the unit the chaos
// fuzzer generates, shrinks, and commits to its corpus, so they
// marshal to a stable JSON shape.
type Event struct {
	Class   Class  `json:"class"`
	Site    string `json:"site"`
	Attempt int    `json:"attempt"`
	// Intensity gates the event in (0, 1]: the event fires when the
	// tuple's seeded uniform draw lands below it, so a schedule can
	// express "maybe" faults that stay deterministic per seed. Zero
	// means 1 (always fire).
	Intensity float64 `json:"intensity,omitempty"`
}

// Validate checks the event against the class catalog and the shared
// bounds rules every fault knob obeys.
func (e Event) Validate() error {
	if rowOf(e.Class).class == "" {
		return fmt.Errorf("fault: unknown class %q", e.Class)
	}
	if e.Site == "" {
		return fmt.Errorf("fault: event %s needs a site", e.Class)
	}
	if e.Attempt < 0 {
		return CheckNonNegative([]NamedValue{{Name: string(e.Class) + " attempt", Value: float64(e.Attempt)}})
	}
	return CheckProbs([]NamedValue{{Name: string(e.Class) + "@" + e.Site + " intensity", Value: e.Intensity}})
}

// String renders the event in the compact form the fuzzer logs use:
// class@site#attempt[*intensity].
func (e Event) String() string {
	s := fmt.Sprintf("%s@%s#%d", e.Class, e.Site, e.Attempt)
	if e.Intensity > 0 && e.Intensity < 1 {
		s += fmt.Sprintf("*%g", e.Intensity)
	}
	return s
}

type planKey struct {
	class   Class
	site    string
	attempt int
}

// Plan is a schedule of exact fault events layered on top of the
// probabilistic config: decisions are pure functions of the tuple, so
// plan-driven injection is as scheduling-independent as the
// probabilistic kind. A nil *Plan schedules nothing.
type Plan struct {
	events map[planKey]float64
}

// NewPlan validates the events and builds the lookup. Duplicate tuples
// keep the highest intensity (a deterministic, order-independent
// merge).
func NewPlan(events []Event) (*Plan, error) {
	p := &Plan{events: make(map[planKey]float64, len(events))}
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		in := e.Intensity
		if in == 0 {
			in = 1
		}
		k := planKey{class: e.Class, site: e.Site, attempt: e.Attempt}
		if prev, ok := p.events[k]; !ok || in > prev {
			p.events[k] = in
		}
	}
	return p, nil
}

// Len reports the number of scheduled tuples.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.events)
}

// Events returns the plan's tuples in deterministic order.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	out := make([]Event, 0, len(p.events))
	for k, in := range p.events {
		out = append(out, Event{Class: k.class, Site: k.site, Attempt: k.attempt, Intensity: in})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Class != out[b].Class {
			return out[a].Class < out[b].Class
		}
		if out[a].Site != out[b].Site {
			return out[a].Site < out[b].Site
		}
		return out[a].Attempt < out[b].Attempt
	})
	return out
}

// intensity looks one tuple up.
func (p *Plan) intensity(class Class, site string, attempt int) (float64, bool) {
	if p == nil {
		return 0, false
	}
	in, ok := p.events[planKey{class: class, site: site, attempt: attempt}]
	return in, ok
}

// Observer receives every injection decision the injector makes —
// scheduled or probabilistic, fired or not. The chaos fuzzer's
// discovery pass uses it to enumerate the decision-point catalog a
// clean run exposes. Observers run on whatever goroutine consults the
// injector and must be safe for concurrent use.
type Observer func(class Class, site string, attempt int, fired bool)
