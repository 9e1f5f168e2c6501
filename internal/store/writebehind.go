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
// Flush is the one write path: a Get never writes. It answers a
// buffered entry from the buffer and counts the hit on the store, so
// cache hit/miss statistics do not depend on flusher timing — the
// determinism contract of the chaos suite. A failed background flush is
// kept, and the next Flush returns it without writing, so a write fails
// the same way whether the flusher or the caller met it first.
//
// Ownership: a buffered entry's Config belongs to the buffer (Put makes
// it a copy, PutOwned takes the caller's) and passes to the store as it
// is. The buffer's own bookkeeping — the pending map, the insertion
// order and the flush's entry list — is recycled: a Flush that drains
// cleanly keeps what it emptied as the spares of the next one. Like the
// store, the buffer keys an entry by its (Signature, Device) pair and
// builds no key string.
type WriteBehind struct {
	st *Store

	mu      sync.Mutex
	pending map[pair]Entry
	order   []pair // insertion order, for deterministic flushes
	closed  bool

	// flushing holds the entries the running Flush took out of pending,
	// until the store holds them, so that an accepted entry is at every
	// instant in pending, in flushing or in the store: Get never finds
	// it in none of them. It is written under mu.
	// flushMu admits one Flush at a time; flushing belongs to it.
	flushMu  sync.Mutex
	flushing map[pair]Entry
	// failed is the error of a background flush that no Flush has
	// returned yet; while it is kept the flusher writes nothing. It
	// belongs to flushMu.
	failed error
	// spareMap, spareOrder and spareEntries are what the last clean
	// Flush emptied — its flushing map, its order slice and its entry
	// list — for the next Flush to fill instead of allocating; nil after
	// a failed one. They belong to flushMu.
	spareMap     map[pair]Entry
	spareOrder   []pair
	spareEntries []Entry

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
		pending: make(map[pair]Entry),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
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
// here, synchronously, so the flusher can never fail on bad input. The
// buffer keeps a copy of e.Config, the one copy the stored entry ever
// gets: the flush hands that map on to the store as it is.
func (w *WriteBehind) Put(e Entry) error {
	e.Config = e.Config.Clone()
	return w.PutOwned(e)
}

// PutOwned is Put without the copy: the buffer, and then the store,
// take e.Config over, and the caller must not write to it again. It may
// go on reading it: the store never writes a map it keeps.
func (w *WriteBehind) PutOwned(e Entry) error {
	if e.Signature == "" {
		return fmt.Errorf("store: entry with empty signature")
	}
	if e.Device == "" {
		return fmt.Errorf("store: entry with empty device")
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrBufferClosed
	}
	key := keyOf(&e)
	if _, dup := w.pending[key]; !dup {
		w.order = append(w.order, key)
	}
	w.pending[key] = e
	w.mWrites.Add(1)
	w.mPending.Set(float64(len(w.pending)))
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return nil
}

// Get reads through the buffer: an entry still pending, or being
// written by a running Flush, is answered from the buffer and counted
// as a store hit, as the store would count it once flushed.
//
// Unlike Store.Get it copies nothing: the entry's Config is the map the
// store keeps, which the caller must treat as read-only, and a miss is
// the bare ErrNotFound.
func (w *WriteBehind) Get(signature, dev string) (Entry, error) {
	key := pair{signature, dev}
	w.mu.Lock()
	e, ok := w.pending[key]
	if !ok {
		e, ok = w.flushing[key]
	}
	w.mu.Unlock()
	if ok {
		w.st.hit()
		return e, nil
	}
	return w.st.get(signature, dev)
}

// Flush synchronously drains every buffered entry into the store, in
// insertion order, as one group commit: on a durable store, one WAL
// write per entry and one fsync for them all. A failed write does not
// lose data: the entries before it are kept, the failing entry and
// everything after it are re-queued (unless a newer Put for the same
// key raced in), the failure is counted, and the error returned — so a
// later Flush, or the one Close runs, retries them.
//
// When a background flush failed since the last Flush returned, Flush
// returns that error and writes nothing. The failed entry is first in
// the buffer, so the buffer is left as this Flush would have left it
// had the flusher not met the failure first.
//
// The entries being written stay readable: Flush moves them to flushing,
// and they leave it only when the store holds them. Without that, an
// entry would for a moment be in neither buffer nor store, and a repeat
// request landing there would be searched a second time.
func (w *WriteBehind) Flush() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if err := w.failed; err != nil {
		w.failed = nil
		return err
	}
	return w.flushLocked()
}

// flushLocked is Flush's group commit. Called with flushMu held.
func (w *WriteBehind) flushLocked() error {
	pending := w.spareMap
	if pending == nil {
		pending = make(map[pair]Entry)
	}
	w.mu.Lock()
	keys := w.order
	entries := w.spareEntries[:0]
	for _, k := range keys {
		entries = append(entries, w.pending[k])
	}
	w.order = w.spareOrder[:0]
	w.flushing, w.pending = w.pending, pending
	w.mPending.Set(0)
	w.mu.Unlock()
	w.spareMap, w.spareOrder, w.spareEntries = nil, nil, nil
	if len(entries) > 0 {
		if n, err := w.st.putBatch(entries); err != nil {
			w.requeue(entries[n:]) // hands on no spares
			return err
		}
	}
	w.mu.Lock()
	// The store holds every entry now: flushing, emptied key by key (a
	// clear would walk every slot a big batch once grew it to), and the
	// two slices are the next Flush's to fill, once they let go of it.
	for _, k := range keys {
		delete(w.flushing, k)
	}
	w.spareMap, w.flushing = w.flushing, nil
	w.mu.Unlock()
	clear(keys)
	clear(entries)
	w.spareOrder, w.spareEntries = keys[:0], entries[:0]
	return nil
}

// requeue puts entries a failed flush could not persist back at the
// front of the buffer, preserving their relative order. Entries the
// caller overwrote while the flush ran keep the newer value.
func (w *WriteBehind) requeue(entries []Entry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mFlushErrs.Inc()
	if w.pending == nil {
		w.pending = make(map[pair]Entry)
	}
	order := make([]pair, 0, len(entries)+len(w.order))
	for _, e := range entries {
		k := keyOf(&e)
		if _, newer := w.pending[k]; newer {
			continue
		}
		w.pending[k] = e
		order = append(order, k)
	}
	w.order = append(order, w.order...)
	w.mPending.Set(float64(len(w.pending)))
	w.flushing = nil // back in pending, where Get finds them
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
			// A failed flush is counted, re-queued and kept: the next
			// Flush — a checkpoint's, or the one Close runs — returns
			// it, and the one after retries the entries.
			w.flushMu.Lock()
			if w.failed == nil {
				w.failed = w.flushLocked()
			}
			w.flushMu.Unlock()
		case <-w.stop:
			return
		}
	}
}
