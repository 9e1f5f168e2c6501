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

// ErrCircuitOpen is returned by the inference server when the target
// device's circuit breaker is rejecting requests.
var ErrCircuitOpen = errors.New("core: inference circuit breaker open")

// ErrNoHealthyDevice is returned when the device is quarantined or its
// breaker rejects the request. It wraps ErrCircuitOpen so callers keep
// classifying it as transient.
var ErrNoHealthyDevice = fmt.Errorf("core: no healthy device in pool: %w", ErrCircuitOpen)

// The server's breakers open after breakerThreshold consecutive request
// failures and start at a cooldown of breakerCooldown rejected requests.
const (
	breakerThreshold = 3
	breakerCooldown  = 2
)

// breakerState enumerates the classic three breaker states.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for span attributes and reports.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-device circuit breaker. The tuning servers run on
// simulated time, so the open-state cooldown is measured in rejected
// requests rather than wall clock: after `threshold` consecutive
// failures the breaker opens and fast-fails the next `cooldown`
// requests, then half-opens to admit a single probe. A successful
// probe closes the breaker and resets the cooldown; a failed probe
// re-opens it with the cooldown doubled (capped) — the backoff
// schedule. This keeps the breaker fully deterministic for a fixed
// request sequence, which the replay tests rely on. It has no lock of
// its own: the server's deviceGate calls it under the gate's.
type breaker struct {
	threshold    int
	baseCooldown int
	maxCooldown  int
	rec          *counters.Resilience

	state       breakerState
	consecFails int
	cooldown    int // current open-state length, in rejected requests
	rejectsLeft int
	probing     bool
}

// newBreaker creates a closed breaker. threshold and cooldown must be
// positive.
func newBreaker(threshold, cooldown int, rec *counters.Resilience) breaker {
	return breaker{
		threshold:    threshold,
		baseCooldown: cooldown,
		maxCooldown:  cooldown * 16,
		cooldown:     cooldown,
		rec:          rec,
	}
}

// allowProbe reports whether a request may proceed, and whether it
// holds the half-open probe slot — which the caller must release
// (releaseProbe) if the request is evicted or cancelled before it ever
// runs. In the open state it consumes one rejection slot per call;
// exhausting the slots moves the breaker to half-open, which admits
// exactly one in-flight probe.
func (b *breaker) allowProbe() (ok, probe bool) {
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		b.rejectsLeft--
		if b.rejectsLeft > 0 {
			return false, false
		}
		b.state = breakerHalfOpen
		b.rec.AddBreakerHalfOpen()
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, true
	}
}

// releaseProbe frees the half-open probe slot without judging the
// device, used when the probing request never ran.
func (b *breaker) releaseProbe() { b.probing = false }

// success records a served request that completed without failure.
// probe says whether the request held the half-open probe slot: only the
// probe's verdict moves a half-open breaker, since a request admitted
// while the breaker was closed says nothing about the device after it
// opened.
func (b *breaker) success(probe bool) {
	if probe {
		if b.state == breakerHalfOpen {
			b.state = breakerClosed
			b.cooldown = b.baseCooldown
			b.rec.AddBreakerClose()
		}
		b.probing = false
	}
	b.consecFails = 0
}

// failure records a served request that failed; caller-cancellations
// must not be reported here. probe is as for success: a failure that did
// not hold the probe slot counts only towards the closed breaker's
// threshold.
func (b *breaker) failure(probe bool) {
	switch {
	case probe && b.state == breakerHalfOpen:
		// Failed probe: re-open with the cooldown doubled.
		b.cooldown *= 2
		if b.cooldown > b.maxCooldown {
			b.cooldown = b.maxCooldown
		}
		b.open()
	case b.state == breakerClosed:
		b.consecFails++
		if b.consecFails >= b.threshold {
			b.open()
		}
	}
	if probe {
		b.probing = false
	}
}

// open transitions to the open state.
func (b *breaker) open() {
	b.state = breakerOpen
	b.rejectsLeft = b.cooldown
	b.consecFails = 0
	b.rec.AddBreakerOpen()
}

// deviceHealthState is the quarantine state machine layered on top of
// the circuit breaker. The breaker reacts to consecutive hard failures;
// the health score additionally notices *degradation* — successes that
// keep arriving slower than the performance model predicts (a
// browning-out board) — and turns requests away before the device ever
// hard-fails.
type deviceHealthState int

const (
	// deviceHealthy devices take every request their breaker admits.
	deviceHealthy deviceHealthState = iota
	// deviceProbation devices passed a recovery probe and take requests
	// again until their score proves out or falls back.
	deviceProbation
	// deviceQuarantined devices take no requests, only the periodic
	// recovery probe.
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
	// probeEvery offers a quarantined device every Nth submission as a
	// recovery probe.
	probeEvery = 4
)

// deviceGate is the server's one device with what decides whether a
// request may run on it: its circuit breaker and its EWMA health score.
// Both change together under mu, so a span reads them in one snapshot.
type deviceGate struct {
	dev  device.Device
	name string
	rec  *counters.Resilience
	// fr receives breaker and health-state transitions as flight events
	// (nil = not recorded). Unlike the resilience counters, the flight
	// stream carries the simulated timestamps, so transitions land on
	// the incident timeline.
	fr *flight.Recorder

	// Registry instruments (nil when metrics are disabled).
	mRequests *obs.Counter
	mFailures *obs.Counter
	mLatency  *obs.Histogram
	mHealth   *obs.Gauge

	mu      sync.Mutex
	br      breaker
	score   float64
	health  deviceHealthState
	probing bool  // a quarantine recovery probe is in flight
	seq     int64 // submissions picked
}

// route is one pick's bookkeeping, which the server must undo if the
// request never runs: breaker half-open probes and quarantine probes
// admit exactly one in-flight request each.
type route struct {
	brProbe bool
	qProbe  bool
}

func newDeviceGate(dev device.Device, rec *counters.Resilience, fr *flight.Recorder) *deviceGate {
	g := &deviceGate{
		dev:   dev,
		name:  dev.Profile.Name,
		rec:   rec,
		fr:    fr,
		br:    newBreaker(breakerThreshold, breakerCooldown, rec),
		score: 1,
	}
	if reg := rec.Registry(); reg != nil {
		prefix := "serving.device." + g.name
		g.mRequests = reg.Counter(prefix + ".requests")
		g.mFailures = reg.Counter(prefix + ".failures")
		g.mLatency = reg.Histogram(prefix+".latency.ms", obs.LatencyBucketsMS)
		g.mHealth = reg.Gauge(prefix + ".health")
		g.mHealth.Set(g.score)
	}
	return g
}

// pick admits a fresh submission at simulated time at, or returns
// ErrNoHealthyDevice. A quarantined device is offered every
// probeEvery-th submission as a recovery probe, through its breaker,
// while no probe is in flight; it turns every other submission away
// without consulting the breaker.
func (g *deviceGate) pick(at time.Duration) (route, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	quarantined := g.health == deviceQuarantined
	if quarantined && (g.seq%probeEvery != 0 || g.probing) {
		return route{}, ErrNoHealthyDevice
	}
	wasOpen := g.br.state == breakerOpen
	ok, brProbe := g.br.allowProbe()
	if !ok {
		return route{}, ErrNoHealthyDevice
	}
	if wasOpen && brProbe {
		g.fr.Record(at, flight.KindBreaker, g.name, "half-open", int64(breakerOpen), int64(breakerHalfOpen))
	}
	if quarantined {
		g.probing = true
		g.rec.AddProbe()
	}
	return route{brProbe: brProbe, qProbe: quarantined}, nil
}

// release undoes a pick whose request never ran (evicted, cancelled
// while queued), so probe slots are not leaked.
func (g *deviceGate) release(r route) {
	if !r.qProbe && !r.brProbe {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.qProbe {
		g.probing = false
	}
	if r.brProbe {
		g.br.releaseProbe()
	}
}

// observe feeds one served request back into the breaker and the
// health score at simulated time at. err==nil with latency beyond the
// expected (perfmodel) duration scores as partial success — the signal
// that catches brown-outs the breaker cannot see. Caller cancellations
// are neutral. Only the quarantine probe's own route frees its slot, so
// a request picked before the quarantine cannot let a second probe out.
func (g *deviceGate) observe(r route, err error, latency, expected, at time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.qProbe {
		g.probing = false
	}
	if err != nil && errors.Is(err, context.Canceled) {
		// The caller walked away; says nothing about the device.
		if r.brProbe {
			g.br.releaseProbe()
		}
		return
	}
	g.mRequests.Add(1)
	g.mLatency.Observe(float64(latency) / float64(time.Millisecond))
	brBefore := g.br.state
	signal := 0.0
	if err == nil {
		g.br.success(r.brProbe)
		signal = 1
		if expected > 0 && latency > expected {
			signal = float64(expected) / float64(latency)
		}
	} else {
		g.br.failure(r.brProbe)
		g.mFailures.Add(1)
	}
	if brAfter := g.br.state; brAfter != brBefore {
		g.fr.Record(at, flight.KindBreaker, g.name, brAfter.String(), int64(brBefore), int64(brAfter))
	}
	hBefore := g.health
	g.score = (1-healthAlpha)*g.score + healthAlpha*signal
	g.mHealth.Set(g.score)

	switch g.health {
	case deviceQuarantined:
		if err == nil && r.qProbe {
			g.health = deviceProbation
			if g.score < quarantineBelow {
				// A clean probe earns a fresh start at the threshold.
				g.score = quarantineBelow
			}
		}
	case deviceProbation:
		if g.score >= recoverAbove {
			g.health = deviceHealthy
		} else if g.score < quarantineBelow {
			g.health = deviceQuarantined
			g.rec.AddQuarantine()
		}
	default: // healthy
		if g.score < quarantineBelow {
			g.health = deviceQuarantined
			g.rec.AddQuarantine()
		}
	}
	if g.health != hBefore {
		g.fr.Record(at, flight.KindHealth, g.name, g.health.String(), int64(hBefore), int64(g.health))
	}
}

// snapshot reports the health state, score and breaker state together.
func (g *deviceGate) snapshot() (deviceHealthState, float64, breakerState) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.health, g.score, g.br.state
}
