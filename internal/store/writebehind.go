package store

import (
	"errors"
	"fmt"
	"slices"
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
//
// Ownership: a buffered entry's Config belongs to the buffer (Put makes
// it a copy, PutOwned takes the caller's) and passes to the store as it
// is. The buffer's own bookkeeping — the pending map, the insertion
// order and the flush's entry list — is recycled: a Flush that drains
// cleanly keeps what it emptied as the spares of the next one.
type WriteBehind struct {
	st *Store
	// syncMode flushes inline on the Put path instead of waking the
	// background flusher (which is never started); see NewSyncWriteBehind.
	syncMode bool

	mu      sync.Mutex
	pending map[string]Entry
	order   []string // insertion order, for deterministic flushes
	closed  bool

	// flushing holds the entries the running Flush took out of pending,
	// each until its store Put has returned, so that an accepted entry is
	// at every instant in pending, in flushing or in the store: Get never
	// finds it in none of them. flushed wakes the Gets waiting on one.
	// flushMu admits one Flush at a time; flushing belongs to it.
	flushMu  sync.Mutex
	flushing map[string]Entry
	flushed  sync.Cond // L is &mu
	// spareMap, spareOrder and spareEntries are what the last clean
	// Flush emptied — its flushing map, its order slice and its entry
	// list — for the next Flush to fill instead of allocating; nil after
	// a failed one. They belong to flushMu.
	spareMap     map[string]Entry
	spareOrder   []string
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
		// matches the background flusher exactly: a failure is counted
		// and re-queued — not returned — so the two modes differ only in
		// scheduling, never in outcome.
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
//
// Unlike Store.Get it copies nothing: the entry's Config is the stored
// map, which the caller must treat as read-only, and a miss is the bare
// ErrNotFound.
func (w *WriteBehind) Get(signature, dev string) (Entry, error) {
	key := signature + "@" + dev
	w.mu.Lock()
	for _, inFlight := w.flushing[key]; inFlight; _, inFlight = w.flushing[key] {
		w.flushed.Wait() // written, or re-queued into pending by a failed flush
	}
	_, pending := w.pending[key]
	w.mu.Unlock()
	if pending {
		if err := w.promote(key); err != nil {
			return Entry{}, err
		}
	}
	return w.st.get(signature, dev)
}

// promote writes the pending entry under key to the store as a Flush of
// that one entry would: under flushMu, through flushing, so the store
// write runs without mu — Puts and Gets go on meanwhile — and the entry
// stays readable. If the write fails, the key goes back to its place in
// the buffer's order, with the entry or any newer value a Put left
// meanwhile.
func (w *WriteBehind) promote(key string) error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	e, ok := w.pending[key]
	if !ok { // a Flush wrote it while this Get waited for flushMu
		w.mu.Unlock()
		return nil
	}
	// k is the buffer's own copy of the key: keeping the caller's would
	// move every Get's key to the heap.
	at := slices.Index(w.order, key)
	k := w.order[at]
	w.order = slices.Delete(w.order, at, at+1)
	delete(w.pending, k)
	if w.spareMap == nil {
		w.spareMap = make(map[string]Entry)
	}
	w.flushing = w.spareMap // empty: it belongs to flushMu, as flushing does
	w.flushing[k] = e
	w.mPending.Set(float64(len(w.pending)))
	w.mu.Unlock()

	err := w.st.put(e)

	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.flushing, k)
	w.flushing = nil
	w.flushed.Broadcast()
	if err != nil {
		if _, newer := w.pending[k]; newer {
			i := slices.Index(w.order, k)
			w.order = slices.Delete(w.order, i, i+1)
		} else {
			w.pending[k] = e
		}
		w.order = slices.Insert(w.order, at, k)
		w.mPending.Set(float64(len(w.pending)))
	}
	return err
}

// Flush synchronously drains every buffered entry into the store, in
// insertion order, as one group commit: on a durable store, one WAL
// write per entry and one fsync for them all. A failed write does not
// lose data: the entries before it are kept, the failing entry and
// everything after it are re-queued (unless a newer Put for the same
// key raced in), the failure is counted, and the error returned — so a
// later Flush, or the one Close runs, retries them.
//
// In sync mode each entry is a commit of its own, so a fault-injected
// filesystem sees one (write, fsync) per record, in the order its seed
// replays, whatever a failed flush left queued.
//
// The entries being written stay readable: Flush moves them to flushing,
// and they leave it only when the store holds them. Without that, an
// entry would for a moment be in neither buffer nor store, and a repeat
// request landing there would be searched a second time.
func (w *WriteBehind) Flush() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	pending := w.spareMap
	if pending == nil {
		pending = make(map[string]Entry)
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
	step := len(entries)
	if w.syncMode {
		step = 1
	}
	for done := 0; done < len(entries); {
		n, err := w.st.putBatch(entries[done:min(done+step, len(entries))])
		w.mu.Lock()
		for _, k := range keys[done : done+n] {
			delete(w.flushing, k)
		}
		w.flushed.Broadcast()
		w.mu.Unlock()
		done += n
		if err != nil {
			w.requeue(entries[done:], err) // hands on no spares
			return err
		}
	}
	w.mu.Lock()
	// Every entry has left flushing, so it is empty: it and the two
	// slices are the next Flush's to fill, once they let go of what the
	// store now holds.
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
func (w *WriteBehind) requeue(entries []Entry, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mFlushErrs.Inc()
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
