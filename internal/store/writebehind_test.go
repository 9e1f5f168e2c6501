package store

import (
	"errors"
	"fmt"
	"path/filepath"
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

// TestSyncWriteBehindFlushesInline pins the synchronous mode's
// contract: a Put is persisted before it returns, on the caller's
// goroutine, with no flusher goroutine ever started — the scheduling
// guarantee the chaos fuzzer's deterministic fault numbering needs.
func TestSyncWriteBehindFlushesInline(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 2)
	st := New()
	wb := NewSyncWriteBehind(st)
	if err := wb.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("store has %d entries immediately after Put, want 1", st.Len())
	}
	if wb.Pending() != 0 {
		t.Errorf("Pending = %d after inline flush, want 0", wb.Pending())
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Put(wbEntry("late", "i7")); !errors.Is(err, ErrBufferClosed) {
		t.Errorf("put after close = %v, want ErrBufferClosed", err)
	}
}

// TestSyncWriteBehindRetainsFailedFlush checks the sync mode matches
// the background flusher's failure semantics exactly: a failed inline
// flush is counted and re-queued, Put still returns nil, and the error
// surfaces through LastFlushErr and the final Close.
func TestSyncWriteBehindRetainsFailedFlush(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(dir, "store.json")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // every store write now fails
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	wb := NewSyncWriteBehind(d.Store())
	wb.Instrument(reg)
	if err := wb.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatalf("Put must not surface the flush failure, got %v", err)
	}
	if wb.Pending() != 1 {
		t.Errorf("Pending = %d, want the failed entry re-queued", wb.Pending())
	}
	if !errors.Is(wb.LastFlushErr(), ErrDurableClosed) {
		t.Errorf("LastFlushErr = %v, want ErrDurableClosed", wb.LastFlushErr())
	}
	if got := reg.Counter("store.writebehind.flush-errors").Value(); got == 0 {
		t.Error("inline flush failure not counted")
	}
	if err := wb.Close(); !errors.Is(err, ErrDurableClosed) {
		t.Errorf("Close error = %v, want ErrDurableClosed", err)
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
	if wb.LastFlushErr() == nil {
		t.Error("LastFlushErr lost the failure")
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
	wb.requeue([]Entry{old}, errors.New("boom"))
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
	if wb.LastFlushErr() != nil {
		t.Error("clean Flush did not clear LastFlushErr")
	}
}

// parkShipper parks the store Put that ships the first WAL frame — mid
// write, with the store's mutex held — until release is closed.
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
	<-park.parked // sig-a's Put is in the store, not yet returned; sig-b's has not begun

	wb.mu.Lock()
	for _, key := range []string{"sig-a@i7", "sig-b@i7"} {
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

// TestWriteBehindFailedFlushWakesWaitingGet: a Get waiting on an entry
// whose flush then fails must not hang — the entry is re-queued and the
// Get goes on to promote it itself, surfacing the store's error.
func TestWriteBehindFailedFlushWakesWaitingGet(t *testing.T) {
	park := &parkShipper{parked: make(chan struct{}), release: make(chan struct{})}
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json"), Shipper: park})
	if err != nil {
		t.Fatal(err)
	}
	wb := newWriteBehind(d.Store())
	for _, sig := range []string{"sig-a", "sig-b"} {
		if err := wb.Put(wbEntry(sig, "i7")); err != nil {
			t.Fatal(err)
		}
	}
	flushErr := make(chan error, 1)
	go func() { flushErr <- wb.Flush() }()
	<-park.parked
	getErr := make(chan error, 1)
	go func() {
		_, err := wb.Get("sig-b", "i7")
		getErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Get start waiting on sig-b
	// Closing the store from inside the parked Put is not possible (it
	// holds the store's mutex); mark it closed directly so sig-b's Put,
	// the next one, fails.
	d.closed = true
	close(park.release)
	if err := <-flushErr; !errors.Is(err, ErrDurableClosed) {
		t.Fatalf("Flush error = %v, want ErrDurableClosed", err)
	}
	select {
	case err := <-getErr:
		if !errors.Is(err, ErrDurableClosed) {
			t.Errorf("waiting Get returned %v, want ErrDurableClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get still waiting on an entry whose flush failed")
	}
	if wb.Pending() != 1 {
		t.Errorf("Pending = %d, want sig-b re-queued", wb.Pending())
	}
}
