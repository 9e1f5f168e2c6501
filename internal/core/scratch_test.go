package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"edgetune/internal/store"
	"edgetune/internal/testutil"
)

// TestScratchRepliesOutliveLaterMisses: one worker serves 100 misses in
// a row on its one scratch. Every reply is what it was when it arrived
// after all the later searches have run, and is the entry the store
// keeps.
func TestScratchRepliesOutliveLaterMisses(t *testing.T) {
	st := store.New()
	srv, _ := servingServer(t, st, func(o *InferenceServerOptions) { o.Trials = 24 })
	const n = 100
	replies := make([]store.Entry, n)
	copies := make([]store.Entry, n)
	for i := range replies {
		out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(i)))
		if out.Err != nil || out.Cached {
			t.Fatalf("miss %d: cached=%v err=%v", i, out.Cached, out.Err)
		}
		replies[i] = out.Entry
		copies[i] = out.Entry
		copies[i].Config = out.Entry.Config.Clone()
	}
	if err := srv.FlushWrites(); err != nil {
		t.Fatal(err)
	}
	for i := range replies {
		if !reflect.DeepEqual(replies[i], copies[i]) {
			t.Errorf("reply %d changed after later misses: %+v, was %+v", i, replies[i], copies[i])
		}
		stored, err := st.Get(replies[i].Signature, replies[i].Device)
		if err != nil || !reflect.DeepEqual(stored, copies[i]) {
			t.Errorf("reply %d = %+v, store holds %+v (%v)", i, copies[i], stored, err)
		}
	}
}

// TestScratchHardStopCancelsSearch: Close during a search whose caller
// never gives up ends it at the next trial with context.Canceled.
func TestScratchHardStopCancelsSearch(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	srv, _ := servingServer(t, store.New(), func(o *InferenceServerOptions) { o.Trials = 1 << 40 })
	ch := srv.Submit(context.Background(), sigRequest(0))
	for deadline := time.Now().Add(10 * time.Second); srv.adm.queuedLen() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never took the request")
		}
	}
	srv.Close()
	select {
	case out := <-ch:
		if !errors.Is(out.Err, context.Canceled) || outcomeLabel(out.Err) != "cancelled" {
			t.Errorf("err = %v (%s), want context.Canceled", out.Err, outcomeLabel(out.Err))
		}
	default:
		t.Error("request unanswered when Close returned")
	}
}
