package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
)

// ErrNoHealthyDevice is returned when every device in the pool is
// quarantined or breaker-rejected. It wraps ErrCircuitOpen so callers
// written against the single-device server (which surfaced the breaker
// directly) keep classifying it as transient.
var ErrNoHealthyDevice = fmt.Errorf("core: no healthy device in pool: %w", ErrCircuitOpen)

// deviceHealthState is the quarantine state machine layered on top of
// the per-device circuit breaker. The breaker reacts to consecutive
// hard failures; the health score additionally notices *degradation* —
// successes that keep arriving slower than the performance model
// predicts (a browning-out board) — and steers load away before the
// device ever hard-fails.
type deviceHealthState int

const (
	// deviceHealthy devices receive weighted routing by score.
	deviceHealthy deviceHealthState = iota
	// deviceProbation devices (recently recovered) carry half weight
	// until their score proves out.
	deviceProbation
	// deviceQuarantined devices receive no routed traffic, only the
	// periodic recovery probe.
	deviceQuarantined
)

// String names the health state for span attributes and reports.
func (s deviceHealthState) String() string {
	switch s {
	case deviceProbation:
		return "probation"
	case deviceQuarantined:
		return "quarantined"
	default:
		return "healthy"
	}
}

const (
	// healthAlpha is the EWMA weight of the newest observation.
	healthAlpha = 0.3
	// quarantineBelow is the score under which a device is quarantined.
	quarantineBelow = 0.35
	// recoverAbove is the score at which probation ends.
	recoverAbove = 0.75
	// probationWeight discounts a probation device's routing weight.
	probationWeight = 0.5
	// probeEvery routes every Nth submission to a quarantined device
	// (if any) as a recovery probe.
	probeEvery = 4
)

// poolDevice is one routed device with its breaker and health state.
type poolDevice struct {
	dev  device.Device
	name string
	br   *breaker

	score   float64
	state   deviceHealthState
	probing bool // a recovery probe is in flight

	// Per-device registry instruments (nil when metrics are disabled).
	mRequests *obs.Counter
	mFailures *obs.Counter
	mLatency  *obs.Histogram
	mHealth   *obs.Gauge
}

// route captures one routing decision: the chosen device plus the
// bookkeeping the server must undo if the request never runs (breaker
// half-open probes and quarantine probes admit exactly one in-flight
// request each).
type route struct {
	pd      *poolDevice
	brProbe bool
	qProbe  bool
}

// devicePool routes requests across the configured devices: weighted
// by health score, probation at half weight, quarantined devices
// excluded except for the periodic recovery probe, and each candidate
// still gated by its own circuit breaker.
type devicePool struct {
	mu   sync.Mutex
	devs []*poolDevice
	// devNames[i] is devs[i].name. The pool is fixed at construction,
	// so it is read without mu.
	devNames []string
	rec      *counters.Resilience
	seq      int64
	// order is bestLocked's sort of the routable devices, kept so a
	// route allocates nothing; under mu.
	order []*poolDevice

	// fr receives breaker and health-state transitions as flight events
	// (nil = not recorded). Unlike the resilience counters, the flight
	// stream carries the simulated timestamps, so transitions land on
	// the incident timeline.
	fr *flight.Recorder
}

func newDevicePool(devs []device.Device, threshold, cooldown int, rec *counters.Resilience) *devicePool {
	p := &devicePool{rec: rec}
	for _, d := range devs {
		pd := &poolDevice{
			dev:   d,
			name:  d.Profile.Name,
			br:    newBreaker(threshold, cooldown, rec),
			score: 1,
		}
		p.devs = append(p.devs, pd)
		p.devNames = append(p.devNames, pd.name)
		if reg := rec.Registry(); reg != nil {
			prefix := "serving.device." + pd.name
			pd.mRequests = reg.Counter(prefix + ".requests")
			pd.mFailures = reg.Counter(prefix + ".failures")
			pd.mLatency = reg.Histogram(prefix+".latency.ms", obs.LatencyBucketsMS)
			pd.mHealth = reg.Gauge(prefix + ".health")
			pd.mHealth.Set(pd.score)
		}
	}
	return p
}

// pick returns the next device for a fresh submission at simulated
// time at, or ErrNoHealthyDevice. Deterministic: no randomness, the
// best-weighted admissible device wins, ties broken by pool order.
func (p *devicePool) pick(at time.Duration) (route, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	if p.seq%probeEvery == 0 {
		for _, d := range p.devs {
			if d.state == deviceQuarantined && !d.probing {
				if ok, brProbe := p.allowLocked(d, at); ok {
					d.probing = true
					p.rec.AddProbe()
					return route{pd: d, brProbe: brProbe, qProbe: true}, nil
				}
			}
		}
	}
	return p.bestLocked(at)
}

// bestLocked walks the routable (non-quarantined) devices in weight
// order and returns the first whose breaker admits traffic at simulated
// time at; callers hold p.mu.
func (p *devicePool) bestLocked(at time.Duration) (route, error) {
	order := p.order[:0]
	for _, d := range p.devs {
		if d.state == deviceQuarantined {
			continue
		}
		order = append(order, d)
	}
	p.order = order
	// Insertion sort by descending weight keeps ties in pool order.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && weight(order[j]) > weight(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, d := range order {
		if ok, brProbe := p.allowLocked(d, at); ok {
			return route{pd: d, brProbe: brProbe}, nil
		}
	}
	return route{}, ErrNoHealthyDevice
}

// allowLocked consults a device's breaker and records the open →
// half-open edge (the only transition allowProbe can make) on the
// flight timeline; callers hold p.mu.
func (p *devicePool) allowLocked(d *poolDevice, at time.Duration) (ok, brProbe bool) {
	wasOpen := p.fr != nil && d.br.snapshotState() == breakerOpen
	ok, brProbe = d.br.allowProbe()
	if wasOpen && ok && brProbe {
		p.fr.Record(at, flight.KindBreaker, d.name, "half-open", int64(breakerOpen), int64(breakerHalfOpen))
	}
	return ok, brProbe
}

func weight(d *poolDevice) float64 {
	w := d.score
	if d.state == deviceProbation {
		w *= probationWeight
	}
	return w
}

// release undoes a routing decision whose request never ran (evicted,
// cancelled while queued), so probe slots are not leaked.
func (p *devicePool) release(r route) {
	if r.pd == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.qProbe {
		r.pd.probing = false
	}
	if r.brProbe {
		r.pd.br.releaseProbe()
	}
}

// observe feeds one served request back into the device's breaker and
// health score at simulated time at. err==nil with latency beyond the
// expected (perfmodel) duration scores as partial success — the signal
// that catches brown-outs the breaker cannot see. Caller cancellations
// are neutral.
func (p *devicePool) observe(r route, err error, latency, expected, at time.Duration) {
	pd := r.pd
	if pd == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	wasProbe := r.qProbe
	pd.probing = false
	if err != nil && errors.Is(err, context.Canceled) {
		// The caller walked away; says nothing about the device.
		if r.brProbe {
			pd.br.releaseProbe()
		}
		return
	}
	pd.mRequests.Add(1)
	pd.mLatency.Observe(float64(latency) / float64(time.Millisecond))
	brBefore := breakerClosed
	if p.fr != nil {
		brBefore = pd.br.snapshotState()
	}
	signal := 0.0
	if err == nil {
		pd.br.success()
		signal = 1
		if expected > 0 && latency > expected {
			signal = float64(expected) / float64(latency)
		}
	} else {
		pd.br.failure()
		pd.mFailures.Add(1)
	}
	if p.fr != nil {
		if brAfter := pd.br.snapshotState(); brAfter != brBefore {
			p.fr.Record(at, flight.KindBreaker, pd.name, brAfter.String(), int64(brBefore), int64(brAfter))
		}
	}
	hBefore := pd.state
	pd.score = (1-healthAlpha)*pd.score + healthAlpha*signal
	pd.mHealth.Set(pd.score)

	defer func() {
		if p.fr != nil && pd.state != hBefore {
			p.fr.Record(at, flight.KindHealth, pd.name, pd.state.String(), int64(hBefore), int64(pd.state))
		}
	}()

	switch pd.state {
	case deviceQuarantined:
		if err == nil && wasProbe {
			pd.state = deviceProbation
			if pd.score < quarantineBelow {
				// A clean probe earns a fresh start at the threshold.
				pd.score = quarantineBelow
			}
		}
	case deviceProbation:
		if pd.score >= recoverAbove {
			pd.state = deviceHealthy
		} else if pd.score < quarantineBelow {
			pd.state = deviceQuarantined
			p.rec.AddQuarantine()
		}
	default: // healthy
		if pd.score < quarantineBelow {
			pd.state = deviceQuarantined
			p.rec.AddQuarantine()
		}
	}
}

// stateOf reports a device's health state and score (for tests).
func (p *devicePool) stateOf(name string) (deviceHealthState, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.devs {
		if d.name == name {
			return d.state, d.score
		}
	}
	return deviceHealthy, 0
}

// breakerOf returns a device's breaker (for tests).
func (p *devicePool) breakerOf(name string) *breaker {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.devs {
		if d.name == name {
			return d.br
		}
	}
	return nil
}
