package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgetune/internal/obs"
	"edgetune/internal/testutil"
)

func wbEntry(sig, dev string) Entry {
	return Entry{Signature: sig, Device: dev, Throughput: 100, Objective: 1}
}

func TestWriteBehindPutEventuallyFlushes(t *testing.T) {
	st := New()
	wb := NewWriteBehind(st)
	defer wb.Close()
	if err := wb.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for st.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never persisted the entry")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteBehindValidation(t *testing.T) {
	wb := NewWriteBehind(New())
	defer wb.Close()
	if err := wb.Put(Entry{Device: "i7"}); err == nil {
		t.Error("empty signature accepted")
	}
	if err := wb.Put(Entry{Signature: "s"}); err == nil {
		t.Error("empty device accepted")
	}
}

func TestWriteBehindGetPromotesPending(t *testing.T) {
	st := New()
	wb := NewWriteBehind(st)
	defer wb.Close()
	// Hold no locks and don't wait for the flusher: Get must see the
	// pending entry immediately and record a store hit for it.
	if err := wb.Put(wbEntry("sig-b", "i7")); err != nil {
		t.Fatal(err)
	}
	e, err := wb.Get("sig-b", "i7")
	if err != nil {
		t.Fatalf("pending entry invisible to Get: %v", err)
	}
	if e.Signature != "sig-b" {
		t.Errorf("got entry %+v", e)
	}
	hits, misses := st.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("hits/misses = %d/%d, want 1/0", hits, misses)
	}
	if _, err := wb.Get("absent", "i7"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing entry error = %v", err)
	}
}

func TestWriteBehindFlushDrains(t *testing.T) {
	st := New()
	wb := NewWriteBehind(st)
	defer wb.Close()
	for i := 0; i < 10; i++ {
		if err := wb.Put(wbEntry(fmt.Sprintf("sig-%d", i), "i7")); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if wb.Pending() != 0 {
		t.Errorf("pending after flush = %d", wb.Pending())
	}
	if st.Len() != 10 {
		t.Errorf("store has %d entries, want 10", st.Len())
	}
}

func TestWriteBehindPutReplacesPendingDuplicate(t *testing.T) {
	st := New()
	wb := NewWriteBehind(st)
	defer wb.Close()
	a := wbEntry("sig", "i7")
	a.Objective = 5
	b := wbEntry("sig", "i7")
	b.Objective = 2
	if err := wb.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := wb.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	e, err := st.Get("sig", "i7")
	if err != nil {
		t.Fatal(err)
	}
	if e.Objective != 2 {
		t.Errorf("objective = %v, want the later write (2)", e.Objective)
	}
	if st.Len() != 1 {
		t.Errorf("store has %d entries, want 1", st.Len())
	}
}

func TestWriteBehindCloseIdempotentAndFinal(t *testing.T) {
	st := New()
	wb := NewWriteBehind(st)
	if err := wb.Put(wbEntry("sig-z", "armv7")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := st.Get("sig-z", "armv7"); err != nil {
		t.Errorf("entry lost on close: %v", err)
	}
	if err := wb.Put(wbEntry("late", "i7")); !errors.Is(err, ErrBufferClosed) {
		t.Errorf("put after close = %v, want ErrBufferClosed", err)
	}
}

func TestWriteBehindConcurrent(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 2)
	st := New()
	wb := NewWriteBehind(st)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sig := fmt.Sprintf("g%d-s%d", g, i)
				if err := wb.Put(wbEntry(sig, "i7")); err != nil {
					t.Error(err)
					return
				}
				if _, err := wb.Get(sig, "i7"); err != nil {
					t.Errorf("get %s: %v", sig, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 400 {
		t.Errorf("store has %d entries, want 400", st.Len())
	}
}

// TestWriteBehindFlushErrorSurfaced drives the buffer against a store
// whose writes fail (a closed durable store) and asserts the failure
// is counted, the entries are re-queued rather than dropped, and the
// error reaches the caller instead of vanishing in the background
// flusher.
func TestWriteBehindFlushErrorSurfaced(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(dir, "store.json")})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wb := NewWriteBehind(d.Store())
	wb.Instrument(reg)
	if err := wb.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatalf("flush to healthy store: %v", err)
	}
	if err := d.Close(); err != nil { // now every store write fails
		t.Fatal(err)
	}
	if err := wb.Put(wbEntry("sig-b", "i7")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Put(wbEntry("sig-c", "i7")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); !errors.Is(err, ErrDurableClosed) {
		t.Fatalf("Flush error = %v, want ErrDurableClosed", err)
	}
	if got := reg.Counter("store.writebehind.flush-errors").Value(); got == 0 {
		t.Error("flush failure not counted")
	}
	// Nothing dropped: both entries are back in the buffer, in order.
	if wb.Pending() != 2 {
		t.Errorf("Pending = %d, want 2 re-queued entries", wb.Pending())
	}
	// The drain path (Close) surfaces the error instead of swallowing
	// it — what the server's Drain(ctx) relies on.
	if err := wb.Close(); !errors.Is(err, ErrDurableClosed) {
		t.Errorf("Close error = %v, want ErrDurableClosed", err)
	}
}

// TestWriteBehindKeepsBackgroundFailure: a failure the background
// flusher meets is kept — the flusher writes nothing more — and the
// next Flush returns it and writes nothing either, as it would have
// failed itself had the flusher not met the failure first. The Flush
// after it writes the buffer.
func TestWriteBehindKeepsBackgroundFailure(t *testing.T) {
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	setClosed := func(closed bool) { // fail every store write, or stop failing
		st.walMu.Lock()
		d.closed = closed
		st.walMu.Unlock()
	}
	reg := obs.NewRegistry()
	wb := NewWriteBehind(st)
	wb.Instrument(reg)
	setClosed(true)
	if err := wb.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatal(err)
	}
	failures := reg.Counter("store.writebehind.flush-errors")
	for deadline := time.Now().Add(5 * time.Second); failures.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the flusher never met the closed store")
		}
	}
	setClosed(false)
	if err := wb.Put(wbEntry("sig-b", "i7")); err != nil { // wakes the flusher
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if st.Len() != 0 {
		t.Fatalf("the flusher wrote %d entries while its failure was kept", st.Len())
	}
	if err := wb.Flush(); !errors.Is(err, ErrDurableClosed) {
		t.Fatalf("Flush = %v, want the kept ErrDurableClosed", err)
	}
	if st.Len() != 0 || wb.Pending() != 2 {
		t.Fatalf("the Flush returning the kept failure wrote: store %d, pending %d", st.Len(), wb.Pending())
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 || failures.Value() != 1 {
		t.Errorf("store holds %d entries after %d failed flushes; want 2 after 1", st.Len(), failures.Value())
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBehindRequeuePreservesOrderAndNewerWrites checks the
// re-queue merge: failed entries go back to the front, but an entry
// the caller overwrote while the flush was failing keeps its newer
// value.
func TestWriteBehindRequeuePreservesOrderAndNewerWrites(t *testing.T) {
	st := New()
	// No background flusher: the test plays its part, so that it cannot
	// drain the newer Put before the re-queue it is meant to race.
	wb := newWriteBehind(st)
	old := wbEntry("sig-a", "i7")
	old.Throughput = 1
	fresh := wbEntry("sig-a", "i7")
	fresh.Throughput = 2
	// Simulate the race: the flush drained {old}, failed, and a newer
	// Put landed before the re-queue.
	if err := wb.Put(fresh); err != nil {
		t.Fatal(err)
	}
	wb.requeue([]Entry{old})
	if wb.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", wb.Pending())
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("sig-a", "i7")
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput != 2 {
		t.Errorf("Throughput = %v; re-queue resurrected the stale write", got.Throughput)
	}
	if wb.Pending() != 0 {
		t.Errorf("Pending = %d after a clean Flush, want 0", wb.Pending())
	}
}

// parkShipper parks the store write that ships the first WAL frame —
// after the fsync, before the apply, with the store's WAL lock held —
// until release is closed.
type parkShipper struct {
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (p *parkShipper) Ship(int64, []byte) {
	p.once.Do(func() {
		close(p.parked)
		<-p.release
	})
}

// TestWriteBehindFlushKeepsEntriesReadable is the regression test for
// the Flush blind window: Flush used to empty the buffer before the
// store Puts ran, so an entry of the batch being written was for a
// moment in neither, and a repeat request landing there was searched
// again. With a Put parked mid-flush, the written entry and the one
// queued behind it must both still be held by the buffer, and Gets
// issued meanwhile must come back as store hits — never a miss, never a
// second Put of the same entry.
func TestWriteBehindFlushKeepsEntriesReadable(t *testing.T) {
	park := &parkShipper{parked: make(chan struct{}), release: make(chan struct{})}
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json"), Shipper: park})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	wb := newWriteBehind(st) // no background flusher: this test owns the one Flush
	for _, sig := range []string{"sig-a", "sig-b"} {
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
	}
	flushErr := make(chan error, 1)
	go func() { flushErr <- wb.Flush() }()
	<-park.parked // both frames are fsynced and shipping; neither entry is applied

	wb.mu.Lock()
	for _, key := range []pair{{"sig-a", "i7"}, {"sig-b", "i7"}} {
		if _, held := wb.flushing[key]; !held {
			t.Errorf("%s is in neither buffer nor store while its flush runs", key)
		}
	}
	wb.mu.Unlock()

	var wg sync.WaitGroup
	for _, sig := range []string{"sig-a", "sig-b", "sig-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, err := wb.Get(sig, "i7"); err != nil || e.Signature != sig {
				t.Errorf("Get(%s) during the flush = %+v, %v; want a hit", sig, e, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the Gets reach the buffer
	close(park.release)
	wg.Wait()
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	if hits, misses := st.Stats(); hits != 3 || misses != 0 {
		t.Errorf("store saw %d hits, %d misses; want 3, 0", hits, misses)
	}
	if d.appendSeq != 2 {
		t.Errorf("%d WAL appends for two entries: a Get wrote one a second time", d.appendSeq)
	}
	wb.mu.Lock()
	if len(wb.flushing) != 0 || len(wb.pending) != 0 {
		t.Errorf("after the flush: %d flushing, %d pending, want none", len(wb.flushing), len(wb.pending))
	}
	wb.mu.Unlock()
}

// TestWriteBehindFailedFlushWakesWaitingGet: a Get of an entry whose
// flush is held and then fails is never left waiting on it — a Get
// writes nothing and waits on no write: it is answered from the buffer
// while the flush runs and from the re-queued entry after it failed.
// The flush is one group commit, so what fails is sig-b's frame write,
// held while the Get runs; sig-a's frame, written before it, is kept:
// fsynced, applied and recovered.
func TestWriteBehindFailedFlushWakesWaitingGet(t *testing.T) {
	g := newGateFS()
	g.parkWrite, g.failWrite = 2, 2 // sig-b's write, and every one after it
	d := openGated(t, g, DurableOptions{})
	wb := newWriteBehind(d.Store())
	for _, sig := range []string{"sig-a", "sig-b"} {
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
	}
	flushErr := make(chan error, 1)
	go func() { flushErr <- wb.Flush() }()
	<-g.parked
	get := func(when string) {
		t.Helper()
		got := make(chan error, 1)
		go func() {
			e, err := wb.Get("sig-b", "i7")
			if err == nil && e.Signature != "sig-b" {
				err = fmt.Errorf("got %+v", e)
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Errorf("Get %s = %v, want a hit", when, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Get %s waited on the flush", when)
		}
	}
	get("while sig-b's write is held")
	close(g.release)
	if err := <-flushErr; !errors.Is(err, errDisk) {
		t.Fatalf("Flush error = %v, want the disk's", err)
	}
	get("after the flush failed")
	if hits, misses := d.Store().Stats(); hits != 2 || misses != 0 {
		t.Errorf("store saw %d hits, %d misses; want 2, 0", hits, misses)
	}
	if wb.Pending() != 1 || d.Store().Len() != 1 {
		t.Errorf("Pending = %d, store holds %d; want sig-b re-queued, sig-a kept", wb.Pending(), d.Store().Len())
	}
	if got := g.durable(); got != d.walSize {
		t.Errorf("%d bytes of the log are durable, %d acknowledged", got, d.walSize)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(DurableOptions{SnapshotPath: d.snapPath})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec := again.Recovery(); rec.RecordsReplayed != 1 || rec.TruncatedBytes != 0 {
		t.Errorf("recovery %+v, want sig-a's frame and no torn tail", rec)
	}
}

// parkAtShipper parks the store write that ships WAL frame at — after
// the fsync, with the store's WAL lock held — until release is closed.
type parkAtShipper struct {
	at      int64
	parked  chan struct{}
	release chan struct{}
}

func (p *parkAtShipper) Ship(seq int64, _ []byte) {
	if seq == p.at {
		close(p.parked)
		<-p.release
	}
}

// mapID identifies a map by its header, to tell a recycled map from a
// new one.
func mapID(m map[pair]Entry) uintptr { return reflect.ValueOf(m).Pointer() }

// TestWriteBehindRecycledFlushKeepsEntriesReadable: a clean Flush leaves
// its emptied map to the next one, which takes Puts in it while a later
// Flush runs. With a Put parked mid-flush on those recycled buffers,
// Gets of the entries being written, of one put meanwhile and of one
// already stored are all hits, and the entry put meanwhile reaches the
// store with the next Flush.
func TestWriteBehindRecycledFlushKeepsEntriesReadable(t *testing.T) {
	park := &parkAtShipper{at: 3, parked: make(chan struct{}), release: make(chan struct{})}
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json"), Shipper: park})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	wb := newWriteBehind(st) // no background flusher: the test owns every Flush
	first := mapID(wb.pending)
	for _, sig := range []string{"sig-a", "sig-b"} { // WAL frames 1 and 2
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mapID(wb.pending); got != first {
		t.Fatal("the second Flush made a new pending map instead of taking the first one's")
	}
	if wb.spareMap == nil || cap(wb.spareOrder) == 0 || cap(wb.spareEntries) == 0 {
		t.Fatal("a clean Flush kept no spares")
	}

	for _, sig := range []string{"sig-c", "sig-d"} {
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
	}
	flushErr := make(chan error, 1)
	go func() { flushErr <- wb.Flush() }()
	<-park.parked // sig-c and sig-d are fsynced; neither is applied
	if err := wb.Put(wbEntry("sig-e", "i7")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, sig := range []string{"sig-a", "sig-c", "sig-d", "sig-d"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, err := wb.Get(sig, "i7"); err != nil || e.Signature != sig {
				t.Errorf("Get(%s) during the flush = %+v, %v; want a hit", sig, e, err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the Gets reach the buffer
	close(park.release)
	wg.Wait()
	if err := <-flushErr; err != nil {
		t.Fatal(err)
	}
	if wb.Pending() != 1 {
		t.Errorf("Pending = %d, want sig-e, put during the flush", wb.Pending())
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if hits, misses := st.Stats(); hits != 4 || misses != 0 || st.Len() != 5 {
		t.Errorf("store holds %d entries, saw %d hits, %d misses; want 5, 4, 0", st.Len(), hits, misses)
	}
	if d.appendSeq != 5 {
		t.Errorf("%d WAL appends for five entries", d.appendSeq)
	}
}

// TestWriteBehindFailedFlushHandsOnNoSpare: a Flush that fails re-queues
// what it could not write and keeps none of its buffers for the next
// one, which may still hold the requeued entries; a clean Flush after it
// writes them in order and starts recycling again.
func TestWriteBehindFailedFlushHandsOnNoSpare(t *testing.T) {
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	setClosed := func(closed bool) { // fail every store write, or stop failing
		st.walMu.Lock()
		d.closed = closed
		st.walMu.Unlock()
	}
	wb := newWriteBehind(st)
	if err := wb.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}

	setClosed(true)
	for _, sig := range []string{"sig-b", "sig-c"} {
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Flush(); !errors.Is(err, ErrDurableClosed) {
		t.Fatalf("Flush error = %v, want ErrDurableClosed", err)
	}
	if wb.spareMap != nil || wb.spareOrder != nil || wb.spareEntries != nil {
		t.Error("a failed Flush handed on spares")
	}
	if got := wb.order; !reflect.DeepEqual(got, []pair{{"sig-b", "i7"}, {"sig-c", "i7"}}) {
		t.Errorf("requeued order %v, want sig-b then sig-c", got)
	}

	setClosed(false)
	if err := wb.Put(wbEntry("sig-d", "i7")); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if wb.Pending() != 0 || wb.spareMap == nil {
		t.Errorf("after a clean Flush: %d pending, spare map %v", wb.Pending(), wb.spareMap != nil)
	}
	var keys []pair
	for _, e := range st.Entries() {
		keys = append(keys, keyOf(&e))
	}
	want := []pair{{"sig-a", "i7"}, {"sig-b", "i7"}, {"sig-c", "i7"}, {"sig-d", "i7"}}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("store holds %v, want %v", keys, want)
	}
	data, err := os.ReadFile(d.walPath)
	if err != nil {
		t.Fatal(err)
	}
	scan := scanWAL(data)
	var logged []pair
	for _, r := range scan.Records {
		logged = append(logged, keyOf(r.Entry))
	}
	if !reflect.DeepEqual(logged, want) {
		t.Errorf("WAL logs %v, want %v: the requeued entries first, in order", logged, want)
	}
}

// TestWriteBehindFailedPromotionKeepsItsPlace: a Get of a pending
// entry while the store refuses writes succeeds and leaves the buffer
// as it found it — a Get promotes nothing into the store, so there is
// no write to fail — and the next Flush writes the buffer in its order.
func TestWriteBehindFailedPromotionKeepsItsPlace(t *testing.T) {
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Store()
	wb := newWriteBehind(st)
	for _, sig := range []string{"sig-a", "sig-b", "sig-c"} {
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
	}
	st.walMu.Lock()
	d.closed = true
	st.walMu.Unlock()
	if e, err := wb.Get("sig-b", "i7"); err != nil || e.Signature != "sig-b" {
		t.Fatalf("Get of a pending entry beside a closed store = %+v, %v; want a hit", e, err)
	}
	want := []pair{{"sig-a", "i7"}, {"sig-b", "i7"}, {"sig-c", "i7"}}
	if !reflect.DeepEqual(wb.order, want) || wb.Pending() != 3 {
		t.Errorf("after the Get: order %v, %d pending; want %v, 3", wb.order, wb.Pending(), want)
	}
	st.walMu.Lock()
	d.closed = false
	st.walMu.Unlock()
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(d.walPath)
	if err != nil {
		t.Fatal(err)
	}
	var logged []pair
	for _, r := range scanWAL(data).Records {
		logged = append(logged, keyOf(r.Entry))
	}
	if !reflect.DeepEqual(logged, want) {
		t.Errorf("WAL logs %v, want %v", logged, want)
	}
}
