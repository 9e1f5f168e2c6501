package core

import (
	"errors"
	"sync"

	"edgetune/internal/obs"
)

// ErrOverloaded is returned by the inference server when admission
// control sheds a submission: the bounded intake queue is full, or an
// injected overload burst fired. Callers should back off or fall back to
// degraded data.
var ErrOverloaded = errors.New("core: inference server overloaded")

// ErrServerClosed is returned by Submit after Close (or once a drain
// has begun): the server no longer accepts work.
var ErrServerClosed = errors.New("core: inference server closed")

// admission is the server's intake gate: a bounded in-system request
// count (queued + in flight) in front of one FIFO queue.
//
// The bound covers queued plus in-flight requests rather than queue
// length alone, so the number of admitted requests in a saturation
// burst does not depend on how quickly workers drain the queue — the
// property that keeps shed counters identical across same-seed runs.
//
// The queue is a ring of call values: push copies a call in, take and
// remove copy it out and zero its slot, so a queued call costs no
// allocation of its own and a finished one is pinned by nothing. The
// ring is made at the first push and doubles when full, never past
// limit slots: a server fed one request at a time keeps one.
type admission struct {
	mu   sync.Mutex
	cond *sync.Cond

	limit       int
	ring        []call // queued calls, oldest at ring[head]
	head, count int
	inflight    int

	rejecting bool // drain started: no new work
	closed    bool // workers may exit
	emptied   bool
	emptyCh   chan struct{} // closed once rejecting and no work remains

	// hold makes take() wait even with work queued; the chaos tests use
	// it to freeze the queue while a deterministic burst is submitted.
	hold bool

	// depth is the serving.queue.depth gauge (nil without a registry),
	// set to the in-system count under mu wherever that count changes
	// hands between submitter and worker, so no stale count lands last.
	depth *obs.Gauge
}

func newAdmission(limit int) *admission {
	a := &admission{limit: limit, emptyCh: make(chan struct{})}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// refusal returns the typed error push would refuse a call with now, or
// nil: what the server asks before it hooks a call to its caller's
// context. push asks again, under the same lock as the copy.
func (a *admission) refusal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.refusalLocked()
}

func (a *admission) refusalLocked() error {
	if a.rejecting {
		return ErrServerClosed
	}
	if a.count+a.inflight >= a.limit {
		return ErrOverloaded
	}
	return nil
}

// push admits c or returns the typed rejection error. It stamps c's
// queue positions, then copies c into the ring: the caller's c stays
// its own, and the queued copy belongs to whoever takes it out.
func (a *admission) push(c *call) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.refusalLocked(); err != nil {
		return err
	}
	// Queue-position accounting for the wait/depth instruments, taken
	// under the lock so it is exact. Positions count queued calls only —
	// in-flight work is excluded, because how fast workers retire it is
	// a scheduling artefact the same-seed contract must not observe.
	c.queuedAhead = a.count
	c.depthAtEnqueue = a.count + 1
	if a.count == len(a.ring) {
		a.grow()
	}
	a.ring[a.slot(a.count)] = *c
	a.count++
	a.setDepth()
	a.cond.Signal()
	return nil
}

// grow doubles the full ring, at most to limit slots, keeping FIFO order
// from index 0. refusalLocked keeps count below limit, so there is
// always room to grow into. Callers hold a.mu.
func (a *admission) grow() {
	ring := make([]call, min(max(2*len(a.ring), 1), a.limit))
	for i := 0; i < a.count; i++ {
		ring[i] = a.ring[a.slot(i)]
	}
	a.ring, a.head = ring, 0
}

// slot is the ring index of the i-th queued call. Callers hold a.mu.
func (a *admission) slot(i int) int { return (a.head + i) % len(a.ring) }

// take blocks for the next call and copies it into dst, returning false
// when the queue is closed and empty.
func (a *admission) take(dst *call) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if !a.hold && a.count > 0 {
			*dst = a.ring[a.head]
			a.ring[a.head] = call{}
			a.head = a.slot(1)
			a.count--
			a.inflight++
			a.setDepth()
			return true
		}
		if a.closed {
			return false
		}
		a.cond.Wait()
	}
}

// done retires one in-flight call.
func (a *admission) done() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight--
	a.setDepth()
	a.maybeEmpty()
}

// remove withdraws the still-queued call with submission sequence number
// seq (caller cancellation) into dst, closing the gap behind it so FIFO
// order holds. It reports whether it found the call — false means a
// worker or the shutdown already took it. A sequence number belongs to
// one opened call, so remove never takes another caller's.
func (a *admission) remove(seq int, dst *call) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < a.count; i++ {
		if a.ring[a.slot(i)].seq != seq {
			continue
		}
		*dst = a.ring[a.slot(i)]
		for ; i+1 < a.count; i++ {
			a.ring[a.slot(i)] = a.ring[a.slot(i+1)]
		}
		a.ring[a.slot(i)] = call{}
		a.count--
		a.maybeEmpty()
		return true
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

// evictAll empties the queue (deadline-expired drain), returning the
// evicted calls so the server can deliver their typed errors.
func (a *admission) evictAll() []call {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]call, a.count)
	for i := range out {
		out[i] = a.ring[a.slot(i)]
	}
	clear(a.ring)
	a.head, a.count = 0, 0
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

// setDepth publishes the in-system count to the depth gauge; callers
// hold a.mu.
func (a *admission) setDepth() {
	a.depth.Set(float64(a.count + a.inflight))
}

// maybeEmpty closes emptyCh once a rejecting queue fully drains;
// callers hold a.mu.
func (a *admission) maybeEmpty() {
	if a.rejecting && !a.emptied && a.inflight == 0 && a.count == 0 {
		a.emptied = true
		close(a.emptyCh)
	}
}
