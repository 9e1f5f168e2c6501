package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"edgetune/internal/device"
	"edgetune/internal/fault"
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

// i7Narrow is an I7 variant whose memory knee sits at small batches: it
// shares the I7's search space, but its search settles elsewhere, so a
// hedge to it finds another configuration than the primary's.
func i7Narrow() device.Device {
	d := device.I7()
	d.Profile.Name = "i7-narrow"
	d.Profile.MemBatchKnee = 4
	d.Profile.FlopsPerCorePerGHz = 3e9
	return d
}

// TestScratchHedgeMatchesFreshServer: a planned brown-out forces a hedge
// to a device whose search finds another configuration, once mild enough
// that the primary still wins and once severe enough that the hedge
// does. The hedge's search reuses the worker's scratch while the
// primary's entry is alive; on a server that has already served misses
// the reply is still, entry for entry, what a fresh server replies.
func TestScratchHedgeMatchesFreshServer(t *testing.T) {
	const warmups = 3
	for _, tc := range []struct {
		name   string
		factor float64 // BrownoutFactor: the planned slowdown's ceiling
		winner string
	}{
		{"primary-wins", 3, "i7"},
		{"hedge-wins", 40, "i7-narrow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := sigRequest(50)
			serve := func(misses int) InferOutcome {
				plan, err := fault.NewPlan([]fault.Event{{Class: fault.DeviceBrownout, Site: "i7/" + req.Signature}})
				if err != nil {
					t.Fatal(err)
				}
				inj, err := fault.NewInjector(fault.Config{BrownoutFactor: tc.factor, Plan: plan}, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				srv, _ := servingServerOn(t, store.New(), []device.Device{device.I7(), i7Narrow()}, func(o *InferenceServerOptions) {
					o.Fault = inj
					o.Trials = 24
				})
				for i := 0; i < misses; i++ {
					if out := mustOutcome(t, srv.Submit(context.Background(), sigRequest(i))); out.Err != nil || out.Hedged {
						t.Fatalf("warm-up miss %d: hedged=%v err=%v", i, out.Hedged, out.Err)
					}
				}
				out := mustOutcome(t, srv.Submit(context.Background(), req))
				if out.Err != nil || !out.Hedged || out.Device != tc.winner {
					t.Fatalf("hedged request: device=%q hedged=%v err=%v; want a hedge won by %s",
						out.Device, out.Hedged, out.Err, tc.winner)
				}
				return out
			}
			fresh, used := serve(0), serve(warmups)
			if !reflect.DeepEqual(used.Entry, fresh.Entry) {
				t.Errorf("after %d misses the reply is %+v, a fresh server's %+v", warmups, used.Entry, fresh.Entry)
			}
		})
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
