package core

import (
	"errors"
	"sync"
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
type admission struct {
	mu   sync.Mutex
	cond *sync.Cond

	limit    int
	queue    []*call
	inflight int

	rejecting bool // drain started: no new work
	closed    bool // workers may exit
	emptied   bool
	emptyCh   chan struct{} // closed once rejecting and no work remains

	// hold makes take() wait even with work queued; the chaos tests use
	// it to freeze the queue while a deterministic burst is submitted.
	hold bool
}

func newAdmission(limit int) *admission {
	a := &admission{limit: limit, emptyCh: make(chan struct{})}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// push admits a job or returns the typed rejection error.
func (a *admission) push(j *call) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rejecting {
		return ErrServerClosed
	}
	if len(a.queue)+a.inflight >= a.limit {
		return ErrOverloaded
	}
	// Queue-position accounting for the wait/depth instruments, taken
	// under the lock so it is exact. Positions count queued jobs only —
	// in-flight work is excluded, because how fast workers retire it is
	// a scheduling artefact the same-seed contract must not observe.
	j.queuedAhead = len(a.queue)
	a.queue = append(a.queue, j)
	j.depthAtEnqueue = len(a.queue)
	a.cond.Signal()
	return nil
}

// queuedLen reports the queued (not in-flight) job count.
func (a *admission) queuedLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// take blocks for the next job, returning false when the queue is
// closed and empty.
func (a *admission) take() (*call, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		if !a.hold && len(a.queue) > 0 {
			j := a.queue[0]
			a.queue = a.queue[1:]
			a.inflight++
			return j, true
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
	for i, q := range a.queue {
		if q == j {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
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

// evictAll empties the queue (deadline-expired drain), returning the
// evicted jobs so the server can deliver their typed errors.
func (a *admission) evictAll() []*call {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.queue
	a.queue = nil
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
	return len(a.queue) + a.inflight
}

// maybeEmpty closes emptyCh once a rejecting queue fully drains;
// callers hold a.mu.
func (a *admission) maybeEmpty() {
	if a.rejecting && !a.emptied && a.inflight == 0 && len(a.queue) == 0 {
		a.emptied = true
		close(a.emptyCh)
	}
}
