package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

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
