package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/obs"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

// TestServedMissAllocatesWhatTheStoreKeeps: a miss served on default
// options allocates the stored Config clone (two objects) and its share
// of the store's entry blocks and index table, and nothing it throws
// away — the queued call lives in the admission ring, not on the heap,
// and no key string is built for the entry.
func TestServedMissAllocatesWhatTheStoreKeeps(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the server's behalf")
	}
	dev := device.I7()
	space, err := workload.MustNew("IC", 1).InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewInferenceServer(InferenceServerOptions{Device: dev, Space: space, Store: store.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const warm, n = 1000, 2000
	reqs := make([]InferRequest, warm+n)
	for i := range reqs {
		reqs[i] = sigRequest(i)
	}
	ctx := context.Background()
	miss := func(req InferRequest) {
		if out := <-srv.Submit(ctx, req); out.Err != nil || out.Cached {
			t.Fatalf("%s: cached=%v err=%v", req.Signature, out.Cached, out.Err)
		}
	}
	for _, req := range reqs[:warm] {
		miss(req)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs[warm:] {
		miss(req)
	}
	runtime.ReadMemStats(&after)
	perMiss := float64(after.Mallocs-before.Mallocs) / n
	bytesPerMiss := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.2f allocs, %.0f B per miss", perMiss, bytesPerMiss)
	if perMiss > 2.1 {
		t.Errorf("a served miss allocates %.2f objects, want ≤ 2.1 (Config clone 2)", perMiss)
	}
	// The Config clone, an 80-byte entry's block share and the index
	// table's doubling: ≈ 354 B, where a map index and a key string read
	// ≈ 422 B.
	if bytesPerMiss > 380 {
		t.Errorf("a served miss allocates %.0f B, want ≤ 380", bytesPerMiss)
	}
}

// TestCancelKeepsRingFIFOAcrossWrap: the ring wraps around its end, and
// removing a queued call by its sequence number takes that call alone and
// keeps the others in submission order.
func TestCancelKeepsRingFIFOAcrossWrap(t *testing.T) {
	a := newAdmission(4)
	push := func(seq int) {
		t.Helper()
		if err := a.push(&call{seq: seq}); err != nil {
			t.Fatalf("push %d: %v", seq, err)
		}
	}
	take := func(want int) {
		t.Helper()
		var c call
		if !a.take(&c) || c.seq != want {
			t.Fatalf("take = seq %d, want %d", c.seq, want)
		}
		a.done()
	}
	for seq := 0; seq < 4; seq++ {
		push(seq)
	}
	take(0)
	take(1)
	push(4)
	push(5) // wraps: slots 0 and 1 again
	var c call
	if !a.remove(3, &c) || c.seq != 3 {
		t.Fatalf("remove 3 = seq %d", c.seq)
	}
	if a.remove(3, &c) {
		t.Fatal("removed seq 3 twice")
	}
	for _, want := range []int{2, 4, 5} {
		take(want)
	}
	if got := a.ringSlots(); got != 4 {
		t.Errorf("ring slots = %d, want 4", got)
	}
	if got := a.pinnedSlots(); got != 0 {
		t.Errorf("%d empty slots still hold a call", got)
	}
}

// TestCancelSecondQueuedCallLeavesFirstServed: of three calls queued
// behind a held worker, cancelling the middle one ends that call alone,
// as cancelled; the first and third are served, in order.
func TestCancelSecondQueuedCallLeavesFirstServed(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	srv, _ := servingServer(t, store.New(), nil)
	srv.adm.setHold(true)
	chs := make([]<-chan InferOutcome, 3)
	cancels := make([]context.CancelFunc, 3)
	for i := range chs {
		var ctx context.Context
		ctx, cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
		chs[i] = srv.Submit(ctx, sigRequest(i))
	}
	cancels[1]()
	if out := mustOutcome(t, chs[1]); !errors.Is(out.Err, context.Canceled) || outcomeLabel(out.Err) != "cancelled" {
		t.Errorf("cancelled call: err = %v (%s), want cancelled", out.Err, outcomeLabel(out.Err))
	}
	if got := srv.adm.queuedLen(); got != 2 {
		t.Errorf("queued after the cancel = %d, want 2", got)
	}
	srv.adm.setHold(false)
	last := mustOutcome(t, chs[2])
	if len(chs[0]) != 1 {
		t.Error("the third call was answered before the first: FIFO order lost")
	}
	for i, out := range []InferOutcome{mustOutcome(t, chs[0]), last} {
		if out.Err != nil || out.Entry.Signature != sigRequest(2*i).Signature {
			t.Errorf("call %d: entry %q, err %v", 2*i, out.Entry.Signature, out.Err)
		}
	}
}

// TestDrainAfterRandomCancelsRepliesExactlyOnce: submitters whose
// callers give up at random points — before submitting, at once, after a
// while, never — then a drain whose deadline has passed. Every Submit is
// answered exactly once, serving.requests counts every one of them, and
// no goroutine outlives the server.
func TestDrainAfterRandomCancelsRepliesExactlyOnce(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	reg := obs.NewRegistry()
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Workers = 2
		o.QueueLimit = 16
		o.Trials = 300 // long enough that work is still queued when the drain starts
		o.Recorder = counters.NewResilienceOn(reg)
	})
	const submitters, perS = 8, 24
	chs := make([]<-chan InferOutcome, submitters*perS)
	cancels := make([]context.CancelFunc, submitters*perS)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perS; i++ {
				k := g*perS + i
				var ctx context.Context
				ctx, cancels[k] = context.WithCancel(context.Background())
				switch rng.Intn(4) {
				case 0: // gave up before submitting
					cancels[k]()
					chs[k] = srv.Submit(ctx, sigRequest(k))
				case 1: // gives up at once
					chs[k] = srv.Submit(ctx, sigRequest(k))
					cancels[k]()
				case 2: // gives up a while later: queued, in flight or answered
					chs[k] = srv.Submit(ctx, sigRequest(k))
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
					cancels[k]()
				default: // never gives up
					chs[k] = srv.Submit(ctx, sigRequest(k))
				}
			}
		}(g)
	}
	wg.Wait()
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Drain(expired)
	endings := map[string]int{}
	for _, ch := range chs {
		endings[outcomeLabel(mustOutcome(t, ch).Err)]++
	}
	t.Logf("endings: %v", endings)
	if got := reg.Counter("serving.requests").Value(); got != int64(len(chs)) {
		t.Errorf("serving.requests = %d, want %d: one per reply", got, len(chs))
	}
	time.Sleep(10 * time.Millisecond) // a second reply, were one sent, lands by now
	for k, ch := range chs {
		if len(ch) != 0 {
			t.Errorf("request %d answered twice", k)
		}
	}
}

// TestEvictedRingStaysWithinQueueLimit: a burst to QueueLimit grows the
// ring to at most QueueLimit slots, and Close's eviction leaves no slot
// holding a call; a server fed one awaited request at a time keeps at
// most two slots, none of them holding a finished call.
func TestEvictedRingStaysWithinQueueLimit(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	const limit = 5
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) { o.QueueLimit = limit })
	srv.adm.setHold(true)
	chs := make([]<-chan InferOutcome, limit+2)
	for i := range chs {
		chs[i] = srv.Submit(context.Background(), sigRequest(i))
	}
	if got := srv.adm.ringSlots(); got > limit {
		t.Errorf("ring slots after a burst = %d, want ≤ QueueLimit %d", got, limit)
	}
	srv.Close()
	for i, ch := range chs {
		if out := mustOutcome(t, ch); out.Err == nil {
			t.Errorf("request %d served with the worker held", i)
		}
	}
	if got := srv.adm.pinnedSlots(); got != 0 {
		t.Errorf("%d ring slots still hold an evicted call", got)
	}

	one, _ := servingServer(t, store.New(), nil)
	for i := 0; i < 50; i++ {
		if out := mustOutcome(t, one.Submit(context.Background(), sigRequest(i))); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	if got := one.adm.ringSlots(); got > 2 {
		t.Errorf("ring slots after one-at-a-time requests = %d, want ≤ 2", got)
	}
	if got := one.adm.pinnedSlots(); got != 0 {
		t.Errorf("%d ring slots still hold a served call", got)
	}
}
