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

	// readyAt is the simulated time at which the device becomes
	// routable: autoscaled replicas warm up first. Zero for the
	// configured pool, which is ready from the start.
	readyAt time.Duration
	// retired devices (autoscale scale-down) receive no new traffic but
	// stay in the slice so in-flight observations and the stored-entry
	// fast path still resolve them.
	retired bool

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
	// devNames[i] is devs[i].name. Devices only ever join (a retired one
	// stays listed), so the slice is append-only and a reader may keep
	// the header it got from names() without copying.
	devNames []string
	rec      *counters.Resilience
	seq      int64

	// Breaker parameters, kept so autoscaled replicas get breakers
	// configured like the seed pool's.
	threshold, cooldown int

	// fr receives breaker and health-state transitions as flight events
	// (nil = not recorded). Unlike the resilience counters, the flight
	// stream carries the simulated timestamps, so transitions land on
	// the incident timeline.
	fr *flight.Recorder
}

func newDevicePool(devs []device.Device, threshold, cooldown int, rec *counters.Resilience) *devicePool {
	p := &devicePool{rec: rec, threshold: threshold, cooldown: cooldown}
	for _, d := range devs {
		p.join(d, 0)
	}
	return p
}

// join adds a routed device entry with its breaker and registry
// instruments to the pool; callers hold p.mu (or are still single-owner
// in newDevicePool).
func (p *devicePool) join(d device.Device, readyAt time.Duration) {
	pd := &poolDevice{
		dev:     d,
		name:    d.Profile.Name,
		br:      newBreaker(p.threshold, p.cooldown, p.rec),
		score:   1,
		readyAt: readyAt,
	}
	p.devs = append(p.devs, pd)
	p.devNames = append(p.devNames, pd.name)
	if reg := p.rec.Registry(); reg != nil {
		prefix := "serving.device." + pd.name
		pd.mRequests = reg.Counter(prefix + ".requests")
		pd.mFailures = reg.Counter(prefix + ".failures")
		pd.mLatency = reg.Histogram(prefix+".latency.ms", obs.LatencyBucketsMS)
		pd.mHealth = reg.Gauge(prefix + ".health")
		pd.mHealth.Set(pd.score)
	}
}

// addReplica joins a cloned device to the pool; it becomes routable at
// readyAt (warm-up on the simulated clock).
func (p *devicePool) addReplica(d device.Device, readyAt time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.join(d, readyAt)
}

// retireNewest removes the most recently added, still-active device
// from routing (autoscale scale-down), never touching the pool's first
// device. It reports the retired device's name, or false when nothing
// is retirable.
func (p *devicePool) retireNewest() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.devs) - 1; i > 0; i-- {
		if d := p.devs[i]; !d.retired {
			d.retired = true
			return d.name, true
		}
	}
	return "", false
}

// massFail quarantines every active device at once (the MassDeviceFail
// fault class): score to zero, no routed traffic until recovery probes
// succeed. Returns the number of devices hit.
func (p *devicePool) massFail() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, d := range p.devs {
		if d.retired || d.state == deviceQuarantined {
			continue
		}
		d.state = deviceQuarantined
		d.score = 0
		if d.mHealth != nil {
			d.mHealth.Set(0)
		}
		p.rec.AddQuarantine()
		n++
	}
	return n
}

// counts reports, at simulated time at: active devices (non-retired,
// including ones still warming up) and healthy devices (active, past
// warm-up, not quarantined).
func (p *devicePool) counts(at time.Duration) (active, healthy int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, d := range p.devs {
		if d.retired {
			continue
		}
		active++
		if d.state != deviceQuarantined && d.readyAt <= at {
			healthy++
		}
	}
	return active, healthy
}

// names lists every pool device name (active and retired) in join
// order, for the stored-entry fast path.
func (p *devicePool) names() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.devNames
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
			if d.state == deviceQuarantined && !d.probing && !d.retired {
				if ok, brProbe := p.allowLocked(d, at); ok {
					d.probing = true
					p.rec.AddProbe()
					return route{pd: d, brProbe: brProbe, qProbe: true}, nil
				}
			}
		}
	}
	return p.bestLocked(nil, at)
}

// next returns the best device other than exclude, for hedged
// re-issues.
func (p *devicePool) next(exclude *poolDevice, at time.Duration) (route, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bestLocked(exclude, at)
}

// bestLocked walks the routable devices (non-quarantined, non-retired,
// past warm-up at simulated time at) in weight order and returns the
// first whose breaker admits traffic; callers hold p.mu.
func (p *devicePool) bestLocked(exclude *poolDevice, at time.Duration) (route, error) {
	order := make([]*poolDevice, 0, len(p.devs))
	for _, d := range p.devs {
		if d == exclude || d.state == deviceQuarantined || d.retired || d.readyAt > at {
			continue
		}
		order = append(order, d)
	}
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
