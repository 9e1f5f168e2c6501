package core

import (
	"errors"
	"fmt"
	"sync"

	"edgetune/internal/sim"
)

// ErrOverloaded is returned by the inference server when admission
// control sheds a submission: the bounded intake queue is full (and the
// request could not preempt anything), or an injected overload burst
// fired. Callers should back off or fall back to degraded data.
var ErrOverloaded = errors.New("core: inference server overloaded")

// ErrRateLimited is returned when a client exceeds its token-bucket
// allowance. It wraps ErrOverloaded so existing shed handling applies.
var ErrRateLimited = fmt.Errorf("client rate limit exceeded: %w", ErrOverloaded)

// ErrServerClosed is returned by Submit after Close (or once a drain
// has begun): the server no longer accepts work.
var ErrServerClosed = errors.New("core: inference server closed")

// Priority orders requests in the intake queue. The zero value is
// critical so existing callers (the model tuning server, whose trials
// block on the reply) keep the stronger class by default.
type Priority int

const (
	// PriorityCritical requests (recommendation path, pipelined trial
	// requests) are served first and may preempt queued background work.
	PriorityCritical Priority = iota
	// PriorityBackground marks cache-warming or prefetch traffic that
	// overload may shed or preempt freely.
	PriorityBackground
)

// admission is the server's intake gate: a bounded in-system request
// count (queued + in flight), two priority FIFOs, and a deterministic
// token-bucket rate limiter per client.
//
// The bound covers queued plus in-flight requests rather than queue
// length alone, so the number of admitted requests in a saturation
// burst does not depend on how quickly workers drain the queue — the
// property that keeps shed counters identical across same-seed runs.
//
// The token bucket is likewise deterministic: its clock is the global
// submission tick, not the wall clock (sim.TokenBuckets), so a fixed
// submission sequence always produces the same rate-limit verdicts.
type admission struct {
	mu   sync.Mutex
	cond *sync.Cond

	limit    int
	high     []*call // critical
	low      []*call // background
	inflight int

	rejecting bool // drain started: no new work
	closed    bool // workers may exit
	emptied   bool
	emptyCh   chan struct{} // closed once rejecting and no work remains

	clients *sim.TokenBuckets // per-client rate limit, under mu

	// hold makes take() wait even with work queued; the chaos tests use
	// it to freeze the queue while a deterministic burst is submitted.
	hold bool
}

func newAdmission(limit int, rate float64, burst int) *admission {
	a := &admission{
		limit:   limit,
		clients: sim.NewTokenBuckets(rate, burst),
		emptyCh: make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// push admits a job, returning the background job it evicted to make
// room (if any) or the typed rejection error.
func (a *admission) push(j *call) (evicted *call, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rejecting {
		return nil, ErrServerClosed
	}
	if _, ok := a.clients.Take(j.Client); !ok {
		return nil, ErrRateLimited
	}
	if len(a.high)+len(a.low)+a.inflight >= a.limit {
		// A critical request may reclaim the slot of the most recently
		// queued background one; everything else is shed.
		if j.Priority == PriorityCritical && len(a.low) > 0 {
			evicted = a.low[len(a.low)-1]
			a.low = a.low[:len(a.low)-1]
		} else {
			return nil, ErrOverloaded
		}
	}
	// Queue-position accounting for the wait/depth instruments, taken
	// under the lock so it is exact. Positions count queued jobs only —
	// in-flight work is excluded, because how fast workers retire it is
	// a scheduling artefact the same-seed contract must not observe.
	if j.Priority == PriorityCritical {
		j.queuedAhead = len(a.high)
		a.high = append(a.high, j)
	} else {
		j.queuedAhead = len(a.high) + len(a.low)
		a.low = append(a.low, j)
	}
	j.depthAtEnqueue = len(a.high) + len(a.low)
	a.cond.Signal()
	return evicted, nil
}

// queuedLen reports the queued (not in-flight) job count.
func (a *admission) queuedLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.high) + len(a.low)
}

// take blocks for the next job (critical first), returning false when
// the queue is closed and empty.
func (a *admission) take() (*call, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if !a.hold {
			if len(a.high) > 0 {
				j := a.high[0]
				a.high = a.high[1:]
				a.inflight++
				return j, true
			}
			if len(a.low) > 0 {
				j := a.low[0]
				a.low = a.low[1:]
				a.inflight++
				return j, true
			}
		}
		if a.closed {
			return nil, false
		}
		a.cond.Wait()
	}
}

// done retires one in-flight job.
func (a *admission) done() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight--
	a.maybeEmpty()
}

// remove withdraws a still-queued job (caller cancellation), reporting
// whether it was found — false means a worker already took it.
func (a *admission) remove(j *call) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, q := range a.high {
		if q == j {
			a.high = append(a.high[:i], a.high[i+1:]...)
			a.maybeEmpty()
			return true
		}
	}
	for i, q := range a.low {
		if q == j {
			a.low = append(a.low[:i], a.low[i+1:]...)
			a.maybeEmpty()
			return true
		}
	}
	return false
}

// reject starts the drain: new pushes fail with ErrServerClosed while
// queued and in-flight work keeps running.
func (a *admission) reject() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rejecting = true
	a.maybeEmpty()
}

func (a *admission) isRejecting() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejecting
}

// evictAll empties the queues (deadline-expired drain), returning the
// evicted jobs so the server can deliver their typed errors.
func (a *admission) evictAll() []*call {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := append(a.high, a.low...)
	a.high, a.low = nil, nil
	a.maybeEmpty()
	return out
}

// evictBackground empties the background queue (the degradation
// ladder's critical-only rung), returning the evicted jobs so the
// server can deliver their typed errors.
func (a *admission) evictBackground() []*call {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.low
	a.low = nil
	a.maybeEmpty()
	return out
}

// close releases the workers. Call after the drain completes.
func (a *admission) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.cond.Broadcast()
}

// setHold freezes (true) or releases (false) the worker side of the
// queue; test-only.
func (a *admission) setHold(h bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.hold = h
	a.cond.Broadcast()
}

// inSystem reports queued plus in-flight jobs (for tests).
func (a *admission) inSystem() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.high) + len(a.low) + a.inflight
}

// maybeEmpty closes emptyCh once a rejecting queue fully drains;
// callers hold a.mu.
func (a *admission) maybeEmpty() {
	if a.rejecting && !a.emptied && a.inflight == 0 && len(a.high)+len(a.low) == 0 {
		a.emptied = true
		close(a.emptyCh)
	}
}
