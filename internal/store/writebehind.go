package store

import (
	"errors"
	"fmt"
	"sync"

	"edgetune/internal/obs"
)

// ErrBufferClosed is returned by WriteBehind.Put after Close.
var ErrBufferClosed = errors.New("store: write-behind buffer closed")

// WriteBehind decouples the inference server's request path from the
// historical database: Put buffers the entry and returns immediately, a
// background flusher drains the buffer into the underlying Store, and
// Get reads through the buffer so a pending entry is never invisible to
// the cache fast path. Flush (and Close) force the buffer empty, which
// is what the server's drain mode relies on for its zero-dropped-writes
// guarantee.
//
// Reads promote a pending entry into the store before delegating to
// Store.Get, so cache hit/miss statistics do not depend on flusher
// timing — the determinism contract of the chaos suite.
type WriteBehind struct {
	st *Store
	// syncMode flushes inline on the Put path instead of waking the
	// background flusher (which is never started); see NewSyncWriteBehind.
	syncMode bool

	mu      sync.Mutex
	pending map[string]Entry
	order   []string // insertion order, for deterministic flushes
	closed  bool
	lastErr error // most recent flush failure; cleared by a clean Flush

	// flushing holds the entries the running Flush took out of pending,
	// each until its store Put has returned, so that an accepted entry is
	// at every instant in pending, in flushing or in the store: Get never
	// finds it in none of them. flushed wakes the Gets waiting on one.
	// flushMu admits one Flush at a time; flushing belongs to it.
	flushMu  sync.Mutex
	flushing map[string]Entry
	flushed  sync.Cond // L is &mu

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	// Registry instruments (nil = metrics off). Only Put-driven values
	// are exported: flush-cycle counts depend on flusher scheduling and
	// would break the byte-stable snapshot contract.
	mWrites    *obs.Counter
	mPending   *obs.Gauge
	mFlushErrs *obs.Counter
}

// NewWriteBehind wraps st with a write-behind buffer and starts its
// background flusher.
func NewWriteBehind(st *Store) *WriteBehind {
	w := newWriteBehind(st)
	go w.flusher()
	return w
}

func newWriteBehind(st *Store) *WriteBehind {
	w := &WriteBehind{
		st:      st,
		pending: make(map[string]Entry),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.flushed.L = &w.mu
	return w
}

// NewSyncWriteBehind wraps st with a buffer that flushes inline on the
// Put path: no background flusher goroutine ever runs, so the
// underlying store — and any fault-injected filesystem beneath it —
// observes the same operation order on every same-seed run. Buffering,
// read-through promotion, and failed-flush retry semantics are
// identical to the asynchronous form; only the scheduling of the
// flushes changes. The chaos fuzzer's determinism invariant depends on
// this mode.
func NewSyncWriteBehind(st *Store) *WriteBehind {
	w := newWriteBehind(st)
	w.syncMode = true
	close(w.done) // no flusher for Close to wait on
	return w
}

// Instrument registers the buffer's metrics on reg: "store.writes"
// counts accepted Puts and "store.writebehind.pending" gauges the
// buffer depth. Both are driven from the synchronous Put/Get/Flush
// paths — never from flusher wake-ups — so a drained buffer reports the
// same values on every same-seed run.
func (w *WriteBehind) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.mu.Lock()
	w.mWrites = reg.Counter("store.writes")
	w.mPending = reg.Gauge("store.writebehind.pending")
	w.mFlushErrs = reg.Counter("store.writebehind.flush-errors")
	w.mu.Unlock()
}

// Put buffers an entry for asynchronous persistence. Validation happens
// here, synchronously, so the flusher can never fail on bad input.
func (w *WriteBehind) Put(e Entry) error {
	if e.Signature == "" {
		return fmt.Errorf("store: entry with empty signature")
	}
	if e.Device == "" {
		return fmt.Errorf("store: entry with empty device")
	}
	e.Config = e.Config.Clone()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBufferClosed
	}
	key := e.key()
	if _, dup := w.pending[key]; !dup {
		w.order = append(w.order, key)
	}
	w.pending[key] = e
	w.mWrites.Add(1)
	w.mPending.Set(float64(len(w.pending)))
	w.mu.Unlock()
	if w.syncMode {
		// Inline flush, on the caller's goroutine. The error handling
		// matches the background flusher exactly: a failure is counted,
		// re-queued, and surfaced via LastFlushErr — not returned — so
		// the two modes differ only in scheduling, never in outcome.
		w.Flush()
		return nil
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return nil
}

// Get reads through the buffer: a pending entry is promoted into the
// store first so hit/miss accounting matches a flushed store exactly,
// and one a running Flush is writing is waited for rather than missed.
func (w *WriteBehind) Get(signature, dev string) (Entry, error) {
	key := signature + "@" + dev
	w.mu.Lock()
	for _, inFlight := w.flushing[key]; inFlight; _, inFlight = w.flushing[key] {
		w.flushed.Wait() // written, or re-queued into pending by a failed flush
	}
	if e, ok := w.pending[key]; ok {
		if err := w.st.Put(e); err != nil {
			w.mu.Unlock()
			return Entry{}, err
		}
		delete(w.pending, key)
		for i, k := range w.order {
			if k == key {
				w.order = append(w.order[:i], w.order[i+1:]...)
				break
			}
		}
		w.mPending.Set(float64(len(w.pending)))
	}
	w.mu.Unlock()
	return w.st.Get(signature, dev)
}

// Pending reports how many buffered entries await persistence.
func (w *WriteBehind) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// Flush synchronously drains every buffered entry into the store, in
// insertion order. A failed Put does not lose data: the failing entry
// and everything after it are re-queued (unless a newer Put for the
// same key raced in), the failure is counted, and the error returned —
// so a later Flush, or the one Close runs, retries them.
//
// The entries being written stay readable: Flush moves them to flushing,
// and each leaves it only when its Put has returned. Without that, an
// entry would for a moment be in neither buffer nor store, and a repeat
// request landing there would be searched a second time.
func (w *WriteBehind) Flush() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	keys := w.order
	entries := make([]Entry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, w.pending[k])
	}
	w.order = nil
	w.flushing, w.pending = w.pending, make(map[string]Entry)
	w.mPending.Set(0)
	w.mu.Unlock()
	for i, e := range entries {
		if err := w.st.Put(e); err != nil {
			w.requeue(entries[i:], err)
			return err
		}
		w.mu.Lock()
		delete(w.flushing, keys[i])
		w.flushed.Broadcast()
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.lastErr = nil
	w.mu.Unlock()
	return nil
}

// LastFlushErr reports the most recent flush failure, or nil after a
// flush that drained cleanly — how callers observe background-flusher
// failures between explicit flushes.
func (w *WriteBehind) LastFlushErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastErr
}

// requeue puts entries a failed flush could not persist back at the
// front of the buffer, preserving their relative order. Entries the
// caller overwrote while the flush ran keep the newer value.
func (w *WriteBehind) requeue(entries []Entry, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mFlushErrs.Inc()
	w.lastErr = err
	if w.pending == nil {
		w.pending = make(map[string]Entry)
	}
	order := make([]string, 0, len(entries)+len(w.order))
	for _, e := range entries {
		k := e.key()
		if _, newer := w.pending[k]; newer {
			continue
		}
		w.pending[k] = e
		order = append(order, k)
	}
	w.order = append(order, w.order...)
	w.mPending.Set(float64(len(w.pending)))
	w.flushing = nil // back in pending, where a waiting Get promotes them
	w.flushed.Broadcast()
}

// Close stops the flusher and drains whatever is still buffered. It is
// idempotent and safe to call concurrently.
func (w *WriteBehind) Close() error {
	w.mu.Lock()
	already := w.closed
	w.closed = true
	w.mu.Unlock()
	if !already {
		close(w.stop)
	}
	<-w.done
	return w.Flush()
}

// flusher drains the buffer whenever a Put wakes it.
func (w *WriteBehind) flusher() {
	defer close(w.done)
	for {
		select {
		case <-w.wake:
			// A failed flush is counted, re-queued, and retried by the
			// next wake-up or the final Close-time flush, whose error
			// reaches the caller (the server's Drain).
			w.Flush()
		case <-w.stop:
			return
		}
	}
}
