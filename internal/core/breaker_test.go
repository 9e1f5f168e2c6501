package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"edgetune/internal/counters"
	"edgetune/internal/fault"
)

// step is one scripted interaction with a breaker: an admission check
// or an outcome report, with the state expected afterwards.
type step struct {
	op        string // "allow-ok", "allow-denied", "success", "failure"
	wantState breakerState
}

// TestBreakerTransitions scripts the breaker state machine end to end:
// threshold trips, cooldown counting, the half-open probe, and the
// doubling backoff on failed probes.
func TestBreakerTransitions(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "threshold-opens",
			steps: []step{
				{"failure", breakerClosed},
				{"failure", breakerClosed},
				{"failure", breakerOpen}, // third consecutive failure trips
			},
		},
		{
			name: "success-resets-consecutive-count",
			steps: []step{
				{"failure", breakerClosed},
				{"failure", breakerClosed},
				{"success", breakerClosed},
				{"failure", breakerClosed},
				{"failure", breakerClosed}, // streak restarted, still closed
			},
		},
		{
			name: "cooldown-then-half-open-probe-closes",
			steps: []step{
				{"failure", breakerClosed},
				{"failure", breakerClosed},
				{"failure", breakerOpen},
				{"allow-denied", breakerOpen},     // cooldown reject 1 of 2
				{"allow-ok", breakerHalfOpen},     // reject 2 exhausts cooldown: probe admitted
				{"allow-denied", breakerHalfOpen}, // only one probe in flight
				{"success", breakerClosed},        // probe succeeded
				{"allow-ok", breakerClosed},
			},
		},
		{
			name: "failed-probe-doubles-cooldown",
			steps: []step{
				{"failure", breakerClosed},
				{"failure", breakerClosed},
				{"failure", breakerOpen},
				{"allow-denied", breakerOpen},
				{"allow-ok", breakerHalfOpen},
				{"failure", breakerOpen}, // failed probe: cooldown now 4
				{"allow-denied", breakerOpen},
				{"allow-denied", breakerOpen},
				{"allow-denied", breakerOpen},
				{"allow-ok", breakerHalfOpen}, // 4th rejection half-opens
				{"success", breakerClosed},    // recovery resets the cooldown
				{"failure", breakerClosed},
				{"failure", breakerClosed},
				{"failure", breakerOpen},
				{"allow-denied", breakerOpen},
				{"allow-ok", breakerHalfOpen}, // back to the base cooldown of 2
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBreaker(3, 2, counters.NewResilience())
			for i, s := range tc.steps {
				switch s.op {
				case "allow-ok":
					if ok, _ := b.allowProbe(); !ok {
						t.Fatalf("step %d: allowProbe() = false, want true", i)
					}
				case "allow-denied":
					if ok, _ := b.allowProbe(); ok {
						t.Fatalf("step %d: allowProbe() = true, want false", i)
					}
				case "success":
					b.success()
				case "failure":
					b.failure()
				}
				if got := b.snapshotState(); got != s.wantState {
					t.Fatalf("step %d (%s): state = %d, want %d", i, s.op, got, s.wantState)
				}
			}
		})
	}
}

// TestBreakerReleaseProbe: a probe slot freed without a verdict (the
// probing request was evicted before running) admits the next probe.
func TestBreakerReleaseProbe(t *testing.T) {
	b := newBreaker(1, 1, counters.NewResilience())
	b.failure() // threshold 1: open immediately
	if ok, _ := b.allowProbe(); !ok {
		t.Fatal("cooldown 1: first rejection should half-open and admit a probe")
	}
	if ok, _ := b.allowProbe(); ok {
		t.Fatal("second concurrent probe admitted")
	}
	b.releaseProbe()
	ok, probe := b.allowProbe()
	if !ok || !probe {
		t.Errorf("after releaseProbe: allowProbe = (%v, %v), want (true, true)", ok, probe)
	}
}

// TestTransientInferError classifies the errors the tuner may retry or
// degrade on versus those it must surface.
func TestTransientInferError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"injected fault", &fault.Error{Class: fault.DeviceFlap, Site: "x"}, true},
		{"wrapped fault", fmt.Errorf("serve: %w", &fault.Error{Class: fault.StoreWrite, Site: "y"}), true},
		{"circuit open", ErrCircuitOpen, true},
		{"no healthy device", ErrNoHealthyDevice, true},
		{"overloaded", ErrOverloaded, true},
		{"tenant quota", fmt.Errorf("cluster: tenant quota exceeded: %w", ErrOverloaded), true},
		{"server closed", ErrServerClosed, true},
		{"deadline", context.DeadlineExceeded, true},
		{"cancelled", context.Canceled, false},
		{"organic", errors.New("invalid configuration"), false},
	}
	for _, tc := range cases {
		if got := transientInferError(tc.err); got != tc.want {
			t.Errorf("%s: transientInferError = %v, want %v", tc.name, got, tc.want)
		}
	}
}
