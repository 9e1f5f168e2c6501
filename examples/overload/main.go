// Overload drives the inference server well past its admission limit
// while one pool device browns out, and shows the serving safeguards
// working together: bounded-queue shedding, per-client rate limiting,
// critical-over-background priority, hedged requests racing a degraded
// device against its healthy twin, health-based quarantine, and a
// graceful drain that flushes every accepted result to the store.
// Standard output is deterministic: re-running prints the same bytes.
// The one thing that is not — how a simultaneous burst splits between
// served and shed — goes to standard error.
//
// Unlike the other examples this one drives the serving layer
// (internal/core) directly — the knobs it demonstrates sit below the
// top-level Job API.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/store"
	"edgetune/internal/workload"
)

func main() {
	rec := counters.NewResilience()
	inj, err := fault.NewInjector(fault.Config{
		DeviceBrownout: 0.4, // attempts slow down by up to 8x...
		BrownoutFactor: 8,   // ...eroding the device's health score
		OverloadBurst:  0.1, // plus a synthetic admission-level spike
	}, 42, rec)
	if err != nil {
		log.Fatal(err)
	}

	w := workload.MustNew("IC", 1)
	primary := device.I7()
	twin := device.I7()
	twin.Profile.Name = "i7-b" // identical twin: a valid hedge target
	space, err := w.InferenceSpace(primary)
	if err != nil {
		log.Fatal(err)
	}

	st := store.New()
	srv, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device:      primary,
		Pool:        []device.Device{primary, twin},
		Space:       space,
		Metric:      core.MetricRuntime,
		Trials:      8,
		Workers:     2,
		Store:       st,
		Seed:        42,
		Fault:       inj,
		Recorder:    rec,
		QueueLimit:  6,    // queued + inflight cap: the rest is shed
		RateLimit:   0.25, // chatty clients earn a quarter token per tick
		RateBurst:   2,
		HedgeFactor: 1.5, // hedge once an attempt runs 1.5x over budget
	})
	if err != nil {
		log.Fatal(err)
	}

	// Steady traffic first, on the simulated clock: 24 critical requests
	// from distinct clients, then one chatty client hammering its own
	// architectures. Each request is awaited before the next is
	// submitted, so every decision below — which submissions the
	// injected bursts shed, when the chatty client's bucket runs dry,
	// which brown-outs hedge — is the same on every run.
	ctx := context.Background()
	var steady tally
	for i := 0; i < 30; i++ {
		req := core.InferRequest{
			Signature:      fmt.Sprintf("IC/layers=%d", 18+i),
			FLOPsPerSample: 1.8e9,
			Params:         11e6,
			SubmitTime:     time.Duration(i) * 10 * time.Second,
		}
		if i >= 24 {
			req.Client = "chatty-dashboard"
		}
		steady.add(<-srv.Submit(ctx, req))
	}
	fmt.Printf("steady: %d requests, one at a time:\n", steady.total())
	fmt.Printf("  served %d (%d hedged), rate-limited %d, shed %d\n",
		steady.ok, steady.hedged, steady.limited, steady.shed)
	s := rec.Snapshot()
	fmt.Printf("  hedges (won)  %d (%d)\n", s.Hedges, s.HedgeWins)
	fmt.Printf("  quarantines   %d\n", s.Quarantines)
	fmt.Printf("  probes        %d\n", s.Probes)

	// Then blast it with more work than it admits: 8 background
	// prefetches first (so later critical arrivals preempt them at the
	// full queue), then 24 critical requests, all at once. How many the
	// two workers retire before the queue fills is up to the scheduler,
	// so the split goes to stderr; what holds on every run is printed.
	var outs []<-chan core.InferOutcome
	for i := 0; i < 32; i++ {
		req := core.InferRequest{
			Signature:      fmt.Sprintf("IC/layers=%d", 100+i),
			FLOPsPerSample: 2.4e9,
			Params:         24e6,
			SubmitTime:     300 * time.Second,
		}
		if i < 8 {
			req.Priority = core.PriorityBackground
		}
		outs = append(outs, srv.Submit(ctx, req))
	}
	var burst tally
	for _, ch := range outs {
		burst.add(<-ch)
	}

	// Orderly shutdown: reject new work, finish what was admitted,
	// flush the write-behind store buffer.
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nburst: %d requests at once past a queue limit of 6, each answered with a result or a typed rejection\n", burst.total())
	fmt.Fprintf(os.Stderr, "  this run: served %d, shed/preempted %d (%d preempted)\n",
		burst.ok, burst.shed+burst.limited, rec.Snapshot().Preempted)
	fmt.Printf("historical store holds every served entry: %t; pending writes: %d\n",
		st.Len() == steady.ok+burst.ok, srv.PendingWrites())

	ladderDemo(w)
}

// tally counts request outcomes by kind.
type tally struct{ ok, hedged, limited, shed int }

func (t *tally) add(out core.InferOutcome) {
	switch {
	case out.Err == nil:
		t.ok++
		if out.Hedged {
			t.hedged++
		}
	case errors.Is(out.Err, core.ErrRateLimited):
		t.limited++
	default:
		t.shed++
	}
}

func (t *tally) total() int { return t.ok + t.limited + t.shed }

// ladderDemo is phase two: the autoscaler's graceful-degradation
// ladder riding out a mass device failure. The whole pool is
// quarantined on the first submission; the controller scales out warm
// replicas, steps the ladder down to critical-only while capacity is
// gone, and — as recovery probes and warmed-up replicas restore the
// pool — releases every rung and retires the extra replicas again.
// Each submission is awaited before the next one, so every control
// decision is stamped on the simulated clock and the decision digest
// is identical on every run.
func ladderDemo(w *workload.Workload) {
	inj, err := fault.NewInjector(fault.Config{MassDeviceFail: 1}, 7, nil)
	if err != nil {
		log.Fatal(err)
	}
	dev := device.I7()
	space, err := w.InferenceSpace(dev)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := core.NewInferenceServer(core.InferenceServerOptions{
		Device:  dev,
		Space:   space,
		Metric:  core.MetricRuntime,
		Trials:  6,
		Workers: 1,
		Store:   store.New(),
		Seed:    7,
		Fault:   inj,
		Autoscale: &autoscale.Config{
			Min:              1,
			Max:              3,
			Window:           8,
			HysteresisTicks:  2,
			LadderAfterTicks: 2,
			WarmupTime:       300 * time.Second,
			WarmupEnergyJ:    50,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	fmt.Printf("\n--- degradation ladder: mass device failure at t=0 ---\n")
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		out := srv.Submit(ctx, core.InferRequest{
			Signature:      fmt.Sprintf("IC/layers=%d", 18+i),
			FLOPsPerSample: 5.6e8,
			Params:         11e6,
			Client:         "ladder-demo",
			SubmitTime:     time.Duration(i) * 10 * time.Second,
		})
		<-out // sequential awaited submissions keep the tick order exact
	}

	for _, d := range srv.AutoscaleDecisions() {
		fmt.Printf("  t=%-5v tick %-2d %-24s replicas=%d mode=%s\n",
			d.At, d.Tick, d.Reason, d.Replicas, d.Mode)
	}
	rep := srv.AutoscaleReport()
	if rep.DeepestMode == autoscale.ModeCriticalOnly {
		fmt.Printf("ladder engaged: degraded to %s while the pool was down\n", rep.DeepestMode)
	}
	if rep.FinalMode == autoscale.ModeNormal && rep.FinalReplicas == 1 {
		fmt.Printf("ladder released: back to %s with %d replica after recovery\n",
			rep.FinalMode, rep.FinalReplicas)
	}
	fmt.Printf("warm-up billed: %v and %.0f J for %d scale-ups\n",
		rep.WarmupTime, rep.WarmupEnergyJ, rep.ScaleUps)
	fmt.Printf("autoscale digest: %016x\n", rep.Digest)
}
