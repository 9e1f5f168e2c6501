package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"edgetune/internal/budget"
	"edgetune/internal/counters"
	"edgetune/internal/search"
	"edgetune/internal/testutil"
	"edgetune/internal/trial"
	"edgetune/internal/workload"
)

// TestTrialBookkeepingAllocations pins what a trial's bookkeeping
// allocates around the training and the inference search: nothing to
// decide a member's configuration, nothing to wait for a reply, and one
// block per Register. A rise is bookkeeping the loop gained back.
func TestTrialBookkeepingAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the job's behalf")
	}
	opts := smallOptions("IC")
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	var res Result
	recd := counters.NewResilienceOn(opts.Metrics)
	j := &tuneJob{opts: opts, res: &res, recd: recd, reg: recd.Registry()}
	defer j.finish()
	if err := j.setUp(); err != nil {
		t.Fatal(err)
	}

	t.Run("trialConfig", func(t *testing.T) {
		// An inference-aware member trains and records the map it was
		// drawn as.
		cfg := j.sampler.Sample()
		var got search.Config
		if allocs := testing.AllocsPerRun(100, func() { got = j.trialConfig(cfg) }); allocs != 0 {
			t.Errorf("trialConfig of an inference-aware member allocates %v times, want 0", allocs)
		}
		if reflect.ValueOf(got).UnsafePointer() != reflect.ValueOf(cfg).UnsafePointer() {
			t.Error("trialConfig copied a configuration that already holds its GPU count")
		}
		// A baseline's member, drawn without one, gets a copy with it.
		drawn := cfg.Clone()
		delete(drawn, workload.ParamGPUs)
		filled := j.trialConfig(drawn)
		if _, ok := drawn[workload.ParamGPUs]; ok || filled[workload.ParamGPUs] != 1 || len(filled) != len(cfg) {
			t.Errorf("a baseline member drawn as %v trains as %v: want a copy with %s = 1", drawn, filled, workload.ParamGPUs)
		}
	})

	t.Run("await", func(t *testing.T) {
		ch := make(chan InferOutcome, 1)
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			ch <- InferOutcome{Cached: true}
			_, err = awaitOutcome(context.Background(), j.deadline, ch, requestTimeout)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("awaiting an answered reply allocates %v times, want 0", allocs)
		}
	})

	t.Run("Register", func(t *testing.T) {
		// At GOMAXPROCS 1 no helper exists, so each Run trains its
		// registered task on the caller: the registered rung allocates
		// what the plain one does plus Register's one block of tasks.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		reqs := make([]trial.Request, 4)
		for i := range reqs {
			reqs[i] = trial.Request{
				Config:  search.Config{workload.ParamLayers: 18, workload.ParamTrainBatch: 64, workload.ParamGPUs: 1},
				Alloc:   budget.Allocation{Epochs: 1, DataFraction: 0.05},
				Attempt: i,
			}
		}
		var err error
		rung := func() {
			for _, req := range reqs {
				if _, rerr := j.runner.Run(context.Background(), req); rerr != nil {
					err = rerr
				}
			}
		}
		plain := testing.AllocsPerRun(5, rung)
		registered := testing.AllocsPerRun(5, func() {
			j.runner.Register(nil, reqs...)
			rung()
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("a rung of %d: %v allocs plain, %v registered", len(reqs), plain, registered)
		if registered-plain != 1 {
			t.Errorf("registering %d trainings its Runs train on the caller costs %v allocations, want 1 (the block of tasks, no channel)",
				len(reqs), registered-plain)
		}
	})
}
