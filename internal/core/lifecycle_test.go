package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/obs"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
)

// TestQueuedCancellableRequestsCostNoGoroutine: a queued request whose
// context can be cancelled is watched by a hook on that context, not by
// a goroutine of its own (one per request before PR 19) — and the hook
// still answers a caller who gives up while queued.
func TestQueuedCancellableRequestsCostNoGoroutine(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	srv, _ := servingServer(t, store.New(), nil)
	srv.adm.setHold(true)
	const n = 32
	before := runtime.NumGoroutine()
	chs := make([]<-chan InferOutcome, n)
	cancels := make([]context.CancelFunc, n)
	for i := range chs {
		var ctx context.Context
		ctx, cancels[i] = context.WithCancel(context.Background())
		defer cancels[i]()
		chs[i] = srv.Submit(ctx, sigRequest(i))
	}
	if got := srv.adm.queuedLen(); got != n {
		t.Fatalf("queued = %d, want %d", got, n)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d queued requests added %d goroutines, want 0", n, after-before)
	}
	for i := 0; i < n; i += 2 {
		cancels[i]()
		if out := mustOutcome(t, chs[i]); !errors.Is(out.Err, context.Canceled) {
			t.Errorf("request %d cancelled while queued: err = %v, want context.Canceled", i, out.Err)
		}
	}
	if got := srv.adm.queuedLen(); got != n/2 {
		t.Errorf("queued after cancelling half = %d, want %d", got, n/2)
	}
	srv.adm.setHold(false)
	for i := 1; i < n; i += 2 {
		if out := mustOutcome(t, chs[i]); out.Err != nil {
			t.Errorf("request %d failed: %v", i, out.Err)
		}
	}
}

// TestCloseAnswersInflightExactlyOnce: Close during eight requests that
// would otherwise never finish returns, every caller has exactly one
// reply, and no goroutine — worker, hook or otherwise — outlives it.
func TestCloseAnswersInflightExactlyOnce(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	const n = 8
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Workers = n
		o.Trials = 1 << 40
	})
	chs := make([]<-chan InferOutcome, n)
	for i := range chs {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		chs[i] = srv.Submit(ctx, sigRequest(i))
	}
	for deadline := time.Now().Add(10 * time.Second); srv.adm.queuedLen() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("workers never took the requests")
		}
	}
	srv.Close()
	for i, ch := range chs {
		select {
		case out := <-ch:
			if !errors.Is(out.Err, context.Canceled) {
				t.Errorf("request %d: err = %v, want context.Canceled", i, out.Err)
			}
		default:
			t.Errorf("request %d unanswered when Close returned", i)
		}
		if len(ch) != 0 {
			t.Errorf("request %d answered twice", i)
		}
	}
	if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(n))); !errors.Is(out.Err, ErrServerClosed) {
		t.Errorf("submit after Close: err = %v, want ErrServerClosed", out.Err)
	}
}

// TestReplyChannelsNeverCrossDeliver: Submit hands out reply channels
// again once their outcome has been received, and never to the wrong
// caller. Goroutines mix hits, misses, concurrent duplicate misses,
// cancelled contexts and channels left unread. Every outcome received
// carries its own request's signature, and a channel nobody read is
// never returned by Submit again. A channel handed out while still full would block its
// next sender for good, so the run as a whole has a deadline.
func TestReplyChannelsNeverCrossDeliver(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) {
		o.Workers = 2
		o.Recorder = counters.NewResilienceOn(reg)
	})
	const hot = 4 // signatures every goroutine repeats: hits after their first miss
	for i := 0; i < hot; i++ {
		if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(i))); out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	const goroutines, perG = 8, 400
	var (
		mu       sync.Mutex
		unread   = map[<-chan InferOutcome]bool{}
		returned = map[<-chan InferOutcome]bool{}
		reused   int
		tuned    int // replies a search produced
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				var req InferRequest
				switch i % 4 {
				case 0: // a miss no other goroutine asks for
					req = sigRequest(1000 + g*perG + i)
				case 1: // one every goroutine asks for at about the same time
					req = sigRequest(100 + i)
				default:
					req = sigRequest(i % hot)
				}
				ctx, cancel := context.WithCancel(context.Background())
				ch := srv.Submit(ctx, req)
				if i%7 == 3 {
					cancel()
				}
				mu.Lock()
				if unread[ch] {
					t.Errorf("request %s got a channel whose outcome was never read", req.Signature)
				}
				if returned[ch] {
					reused++
				}
				returned[ch] = true
				if i%11 == 5 {
					unread[ch] = true
				}
				mu.Unlock()
				if i%11 == 5 {
					cancel()
					continue
				}
				select {
				case out := <-ch:
					if out.Err == nil && out.Entry.Signature != req.Signature {
						t.Errorf("request %s answered with %s's entry", req.Signature, out.Entry.Signature)
					}
					if out.Err == nil && !out.Cached {
						mu.Lock()
						tuned++
						mu.Unlock()
					}
				case <-time.After(10 * time.Second):
					t.Errorf("request %s: no outcome delivered", req.Signature)
				}
				cancel()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("submissions still blocked after 60s: a reply was sent on a channel that was still full")
	}
	if reused == 0 {
		t.Errorf("no reply channel was handed out twice in %d submissions: nothing was recycled", goroutines*perG)
	}
	if hits := reg.Counter("serving.cache-hits").Value(); hits == 0 || tuned == 0 {
		t.Errorf("traffic mix: %d hits, %d tuned; want some of each", hits, tuned)
	}
}
