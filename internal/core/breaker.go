package core

import (
	"errors"
	"sync"

	"edgetune/internal/counters"
)

// ErrCircuitOpen is returned by the inference server when the target
// device's circuit breaker is rejecting requests.
var ErrCircuitOpen = errors.New("core: inference circuit breaker open")

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
// request sequence, which the replay tests rely on.
type breaker struct {
	mu           sync.Mutex
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
// positive (normalised by the caller).
func newBreaker(threshold, cooldown int, rec *counters.Resilience) *breaker {
	return &breaker{
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
	b.mu.Lock()
	defer b.mu.Unlock()
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
func (b *breaker) releaseProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// success records a served request that completed without failure.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerClosed
		b.cooldown = b.baseCooldown
		b.rec.AddBreakerClose()
	}
	b.probing = false
	b.consecFails = 0
}

// failure records a served request that failed; caller-cancellations
// must not be reported here.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		// Failed probe: re-open with the cooldown doubled.
		b.cooldown *= 2
		if b.cooldown > b.maxCooldown {
			b.cooldown = b.maxCooldown
		}
		b.open()
	case breakerClosed:
		b.consecFails++
		if b.consecFails >= b.threshold {
			b.open()
		}
	}
	b.probing = false
}

// open transitions to the open state (callers hold the lock).
func (b *breaker) open() {
	b.state = breakerOpen
	b.rejectsLeft = b.cooldown
	b.consecFails = 0
	b.rec.AddBreakerOpen()
}

// snapshotState reports the current state (for tests and span
// attributes).
func (b *breaker) snapshotState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
