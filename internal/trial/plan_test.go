package trial

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgetune/internal/budget"
	"edgetune/internal/fault"
	"edgetune/internal/perfmodel"
	"edgetune/internal/search"
	"edgetune/internal/sim"
	"edgetune/internal/tensor"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

func runnerFor(t *testing.T, id string) *Runner {
	t.Helper()
	r, err := NewRunner(workload.MustNew(id, 1), perfmodel.GPUProfile{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// withProcs runs the test at the given GOMAXPROCS, so at procs − 1
// helpers, and checks on the way out that every helper is gone and the
// process-wide budget whole again.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	testutil.CheckGoroutineLeak(t, 0)
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() {
		if idle := IdleHelpers(); idle != procs-1 {
			t.Errorf("%d helpers idle at GOMAXPROCS %d: the budget was not given back", idle, procs)
		}
		runtime.GOMAXPROCS(prev)
	})
}

// trainedOn is trainOn with the final weights copied out before the
// scratch can be reset.
func trainedOn(t *testing.T, r *Runner, a *tensor.Arena, req Request) (training, []float64) {
	t.Helper()
	out, net := r.trainOn(a, req.Config, req.Alloc, req.Attempt, func() error { return nil })
	if out.err != nil {
		t.Fatal(out.err)
	}
	var weights []float64
	for _, p := range net.Params() {
		weights = append(weights, p.W.Data...)
	}
	return out, weights
}

// TestDirtyScratchIsInvisible: on all four workloads, a training on a
// scratch that a larger trial of another depth (or width, stride, rate)
// and batch size has just used, and on one filled with NaNs since,
// returns the accuracy, steps, final loss and final weights — bit for
// bit — of the same request on a scratch nobody has touched, and Run
// reports the same accuracy and steps.
func TestDirtyScratchIsInvisible(t *testing.T) {
	for _, tt := range []struct {
		id          string
		req, before Request
	}{
		{"IC",
			Request{Config: search.Config{workload.ParamLayers: 18, workload.ParamTrainBatch: 64, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.2}},
			Request{Config: search.Config{workload.ParamLayers: 50, workload.ParamTrainBatch: 300, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.5}}},
		{"SR",
			Request{Config: search.Config{workload.ParamEmbedDim: 32, workload.ParamTrainBatch: 48, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.2}, Attempt: 1},
			Request{Config: search.Config{workload.ParamEmbedDim: 128, workload.ParamTrainBatch: 256, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.4}}},
		{"NLP",
			Request{Config: search.Config{workload.ParamStride: 7, workload.ParamTrainBatch: 40, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.15}},
			Request{Config: search.Config{workload.ParamStride: 2, workload.ParamTrainBatch: 200, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.5}}},
		{"OD",
			Request{Config: search.Config{workload.ParamDropout: 0.3, workload.ParamTrainBatch: 33, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 3, DataFraction: 0.2}},
			Request{Config: search.Config{workload.ParamDropout: 0.1, workload.ParamTrainBatch: 512, workload.ParamGPUs: 1}, Alloc: budget.Allocation{Epochs: 2, DataFraction: 0.5}}},
	} {
		t.Run(tt.id, func(t *testing.T) {
			want, wantW := trainedOn(t, runnerFor(t, tt.id), new(tensor.Arena), tt.req)
			r, a := runnerFor(t, tt.id), new(tensor.Arena)
			for _, dirty := range []string{"used by a larger trial", "filled with NaNs"} {
				if dirty == "filled with NaNs" {
					a.Reset()
					floats, ints := a.New(1, 1<<18).Data, a.Ints(1<<14)
					for i := range floats {
						floats[i] = math.NaN()
					}
					for i := range ints {
						ints[i] = -1
					}
				} else {
					trainedOn(t, r, a, tt.before)
				}
				got, gotW := trainedOn(t, r, a, tt.req)
				if got != want {
					t.Errorf("scratch %s: training %+v, on an untouched scratch %+v", dirty, got, want)
				}
				if len(gotW) != len(wantW) {
					t.Fatalf("scratch %s: %d weights, want %d", dirty, len(gotW), len(wantW))
				}
				for i := range wantW {
					if gotW[i] != wantW[i] {
						t.Fatalf("scratch %s: weight %d is %v, on an untouched scratch %v", dirty, i, gotW[i], wantW[i])
					}
				}
			}
			// Through Run the scratch is whatever the free list holds:
			// here, the ones the subtests before this one left behind.
			res, err := r.Run(context.Background(), tt.req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Accuracy != want.accuracy || res.Steps != want.steps {
				t.Errorf("Run reports accuracy %v in %d steps, the training %v in %d", res.Accuracy, res.Steps, want.accuracy, want.steps)
			}
		})
	}
}

// rungRequests is a population as a rung registers it: different
// depths and batch sizes at one allocation, with one configuration in
// it twice.
func rungRequests() []Request {
	alloc := budget.Allocation{Epochs: 1, DataFraction: 0.2}
	var reqs []Request
	for _, c := range [][2]float64{{18, 64}, {50, 128}, {34, 32}, {18, 64}, {34, 400}, {50, 77}} {
		reqs = append(reqs, Request{Alloc: alloc,
			Config: search.Config{workload.ParamLayers: c[0], workload.ParamTrainBatch: c[1], workload.ParamGPUs: 1}})
	}
	return reqs
}

// runAll is what a rung does: one Run per request, in order.
func runAll(t *testing.T, r *Runner, reqs []Request) []Result {
	t.Helper()
	out := make([]Result, len(reqs))
	for i, req := range reqs {
		var err error
		if out[i], err = r.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRegisteredTrainingsAreInvisible: a rung's Runs return the same
// results whether nothing was registered, everything was registered and
// no helper exists (GOMAXPROCS 1: the caller claims each task as its Run
// reaches it), or helpers train from the back of the list meanwhile —
// and a configuration registered twice is two trainings read by two
// Runs, not one read twice.
func TestRegisteredTrainingsAreInvisible(t *testing.T) {
	reqs := rungRequests()
	want := runAll(t, icRunner(t), reqs)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("procs=", procs), func(t *testing.T) {
			withProcs(t, procs)
			r := icRunner(t)
			r.Register(nil, reqs...)
			for i, req := range reqs {
				res, err := r.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if res != want[i] {
					t.Errorf("request %d: %+v with the rung registered, %+v without", i, res, want[i])
				}
				r.plan.mu.Lock()
				left := len(r.plan.tasks)
				r.plan.mu.Unlock()
				if left != len(reqs)-1-i {
					t.Fatalf("after Run %d the plan holds %d tasks, want %d: a Run takes exactly one", i, left, len(reqs)-1-i)
				}
			}
			// Nothing is registered any more: this one trains inline.
			if res, err := r.Run(context.Background(), reqs[1]); err != nil || res != want[1] {
				t.Errorf("unregistered repeat: %+v, %v; want %+v", res, err, want[1])
			}
			r.Drain()
		})
	}
}

// TestDrainGivesUpWhatNobodyReads: with a rung and a bracket's tail
// registered and a helper in the middle of the largest training, Drain
// returns without that training having finished, leaves no helper alive
// and the budget whole; a Run afterwards trains inline as if nothing had
// been registered.
func TestDrainGivesUpWhatNobodyReads(t *testing.T) {
	withProcs(t, 2)
	r := icRunner(t)
	big := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 400, DataFraction: 1}} // minutes, if it ran
	small := trialReq()
	r.Register(nil, small, big, big)
	if _, err := r.Run(context.Background(), small); err != nil { // starts the helper, on the last task
		t.Fatal(err)
	}
	if IdleHelpers() != 0 {
		t.Fatal("no helper was started for two unclaimed trainings")
	}
	start := time.Now()
	r.Drain()
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Drain took %v: the helper finished its training instead of giving it up", d)
	}
	want, err := icRunner(t).Run(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Run(context.Background(), small); err != nil || got != want {
		t.Errorf("Run after Drain: %+v, %v; want %+v", got, err, want)
	}
	r.Drain() // idempotent, and a no-op on a runner with no plan
	(*Runner)(nil).Drain()
}

// TestCancelledWaitGivesTheTrainingUp: a Run that is waiting for a
// helper's training when its context ends returns the context's error
// and stops the helper.
func TestCancelledWaitGivesTheTrainingUp(t *testing.T) {
	withProcs(t, 2)
	r := icRunner(t)
	big := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 400, DataFraction: 1}}
	bigger := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 401, DataFraction: 1}}
	r.Register(nil, trialReq(), big, bigger)
	if _, err := r.Run(context.Background(), trialReq()); err != nil { // the helper takes `bigger`
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := r.Run(ctx, bigger); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run waiting on a helper returned %v, want the context's error", err)
	}
	r.Drain()
}

// TestInjectedCrashDiscardsTheRegisteredTraining: attempt 0 dies before
// training, so its registered result is never read; the crash path
// takes it out of the plan and the retry trains inline.
func TestInjectedCrashDiscardsTheRegisteredTraining(t *testing.T) {
	withProcs(t, 1)
	r := icRunner(t)
	plan, err := fault.NewPlan([]fault.Event{{Class: fault.TrialCrash, Site: trialReq().site(), Attempt: 0}})
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(fault.Config{Plan: plan}, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.SetFaultInjector(in)
	r.Register(nil, trialReq())
	if _, err := r.Run(context.Background(), trialReq()); fault.ClassOf(err) != fault.TrialCrash {
		t.Fatalf("err = %v, want the planned crash", err)
	}
	if len(r.plan.tasks) != 0 {
		t.Errorf("the crashed attempt left %d registered trainings behind", len(r.plan.tasks))
	}
	retry := trialReq()
	retry.Attempt = 1
	if _, err := r.Run(context.Background(), retry); err != nil {
		t.Errorf("retry: %v", err)
	}
}

// TestHelperBudgetIsProcessWide: two runners side by side share one
// budget of GOMAXPROCS − 1 helpers; the second gets none while the
// first's is busy, and trains everything itself.
func TestHelperBudgetIsProcessWide(t *testing.T) {
	withProcs(t, 2)
	big := Request{Config: icConfig(), Alloc: budget.Allocation{Epochs: 400, DataFraction: 1}}
	a, b := icRunner(t), icRunner(t)
	a.Register(nil, trialReq(), big, big)
	b.Register(nil, trialReq(), trialReq(), trialReq())
	if _, err := a.Run(context.Background(), trialReq()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Run(context.Background(), trialReq()); err != nil {
			t.Fatal(err)
		}
		if b.plan.running != 0 || IdleHelpers() != 0 {
			t.Fatalf("runner b has %d helpers, %d idle in the process: the budget is one, and a holds it", b.plan.running, IdleHelpers())
		}
	}
	a.Drain()
	b.Drain()
}

// TestRunConcurrentlyFromFourGoroutines: Run stays safe to call from
// several goroutines at once — scratches are acquired and released
// around each training, never owned by the Runner — with and without
// registered trainings, and every caller gets the result a lone caller
// gets.
func TestRunConcurrentlyFromFourGoroutines(t *testing.T) {
	withProcs(t, 4)
	reqs := rungRequests()
	want := runAll(t, icRunner(t), reqs)
	r := icRunner(t)
	r.Register(nil, reqs[:3]...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				i = (i + g) % len(reqs)
				res, err := r.Run(context.Background(), reqs[i])
				if err != nil {
					t.Error(err)
				} else if res != want[i] {
					t.Errorf("goroutine %d, request %d: %+v, want %+v", g, i, res, want[i])
				}
			}
		}()
	}
	wg.Wait()
	r.Drain()
}

// TestTrainingFaultSitesNamedOnlyForAnInjector is the training twin of
// core's TestFaultSitesNamedOnlyForAnInjector: an injector with every
// probability zero is still consulted at the three training-side
// decision points by the same site name, and a runner without one does
// not build the name — a trial then allocates strictly less.
func TestTrainingFaultSitesNamedOnlyForAnInjector(t *testing.T) {
	var seen []string
	inj, err := fault.NewInjector(fault.Config{Observe: func(c fault.Class, site string, attempt int, _ bool) {
		seen = append(seen, fmt.Sprintf("%s %s #%d", c, site, attempt))
	}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := trialReq()
	req.Attempt = 2
	allocs := func(inj *fault.Injector) float64 {
		r := icRunner(t)
		r.SetFaultInjector(inj)
		run := func() {
			if _, err := r.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		run() // settle the scratch
		seen = nil
		return testing.AllocsPerRun(5, run)
	}
	without, with := allocs(nil), allocs(inj)
	const site = "gpus=1;layers=18;train_batch=128;|e2|f0.3"
	want := []string{"trial-crash " + site + " #2", "trial-nan " + site + " #2", "straggler " + site + " #2"}
	if len(seen) < 3 || seen[0] != want[0] || seen[1] != want[1] || seen[2] != want[2] {
		t.Errorf("a zero-probability injector was consulted at %q, want %q per trial", seen, want)
	}
	if without >= with {
		t.Errorf("a trial allocates %.0f times without an injector, %.0f with one: the site name is still built for nobody", without, with)
	}
}

// spilled reports whether what ran on a since its last Reset overflowed
// it: the Reset after a spill replaces a block, any other Reset
// allocates nothing. The counters are process-wide, so GOMAXPROCS is
// pinned to 1 across the window, as testing.AllocsPerRun pins it: no
// other goroutine allocates inside it.
func spilled(a *tensor.Arena) bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a.Reset()
	runtime.ReadMemStats(&after)
	return after.Mallocs != before.Mallocs
}

// TestSettledScratchNeverSpills: once settled, a scratch holds every
// trial its workload's space can ask for — every corner of the space
// trained and evaluated on all of the data and on a sliver of it, and
// 200 sampled configurations at sampled data fractions through their
// first step (what a trial takes from its scratch it has taken by then,
// but for the evaluation, which the corners cover) — so that what a
// job allocates does not depend on which scratch met which trial.
func TestSettledScratchNeverSpills(t *testing.T) {
	for _, id := range workload.IDs() {
		t.Run(id, func(t *testing.T) {
			r, a := runnerFor(t, id), new(tensor.Arena)
			space, err := r.workload.TrainSpace(true)
			if err != nil {
				t.Fatal(err)
			}
			if r.trainOn(a, space.Sample(sim.NewRNG(1)), budget.Allocation{Epochs: 1, DataFraction: 0.1}, 0, nil); !spilled(a) {
				t.Fatal("a scratch nobody settled held a trial: the spill detector sees nothing")
			}
			a = new(tensor.Arena)
			r.settle(a)
			a.Reset()

			try := func(cfg search.Config, frac float64, steps int) {
				t.Helper()
				check := func() error {
					if steps--; steps < 0 {
						return context.Canceled
					}
					return nil
				}
				out, _ := r.trainOn(a, cfg, budget.Allocation{Epochs: 1, DataFraction: frac}, 0, check)
				if out.err != nil && !errors.Is(out.err, context.Canceled) {
					t.Fatal(out.err)
				}
				if spilled(a) {
					t.Errorf("%v at data fraction %g spilt a settled scratch", cfg, frac)
				}
			}
			u := make([]float64, space.Dim())       // model parameter, batch size, GPUs
			for corner := 0; corner < 4; corner++ { // GPUs change the bill, not the training
				u[0], u[1] = float64(corner&1), float64(corner>>1)
				cfg, err := space.FromUnit(u)
				if err != nil {
					t.Fatal(err)
				}
				try(cfg, 1, math.MaxInt)
				try(cfg, 0.01, math.MaxInt)
			}
			rng := sim.NewRNG(7)
			for i := 0; i < 200; i++ {
				try(space.Sample(rng), 0.01+0.99*rng.Float64(), 1)
			}
		})
	}
}

// TestScratchesAreKeptAtPeakConcurrency: eight trainings running at
// once leave eight scratches on the free list, whatever GOMAXPROCS is
// (the list was capped there before PR 19, and a third trainer on two
// cores built and dropped a scratch per trial), and a second wave of
// eight finds them all there and makes none.
func TestScratchesAreKeptAtPeakConcurrency(t *testing.T) {
	scratches.mu.Lock()
	scratches.free = nil
	scratches.mu.Unlock()
	r := runnerFor(t, "IC")
	req := rungRequests()[0]
	const n = 8
	for wave := 1; wave <= 2; wave++ {
		var started, done sync.WaitGroup
		started.Add(n)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer done.Done()
				first := true
				out := r.train(req.Config, req.Alloc, 0, func() error {
					if first { // hold the scratch until all eight have one
						first = false
						started.Done()
						started.Wait()
					}
					return nil
				})
				if out.err != nil {
					t.Error(out.err)
				}
			}()
		}
		done.Wait()
		scratches.mu.Lock()
		kept := len(scratches.free)
		scratches.mu.Unlock()
		if kept != n {
			t.Errorf("after wave %d of %d concurrent trainings the free list holds %d scratches, want %d", wave, n, kept, n)
		}
	}
}

// TestTrialLeavesNoFeaturesBehind: a trial that re-featurises writes its
// features to its scratch, so once the scratch is settled a trial at a
// stride the runner has never seen allocates next to nothing. Before PR
// 20 the runner kept one heap-allocated featurisation of the whole
// corpus per stride and each of these trials read ≈ 2.6 MB.
func TestTrialLeavesNoFeaturesBehind(t *testing.T) {
	scratches.mu.Lock()
	scratches.free = nil // a scratch settled for a smaller workload would regrow here
	scratches.mu.Unlock()
	r := runnerFor(t, "NLP")
	run := func(stride int) {
		t.Helper()
		cfg := search.Config{workload.ParamStride: float64(stride), workload.ParamTrainBatch: 128, workload.ParamGPUs: 1}
		if _, err := r.Run(context.Background(), Request{Config: cfg, Alloc: budget.Allocation{Epochs: 1, DataFraction: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // makes and settles the scratch
	var before, after runtime.MemStats
	for stride := 1; stride <= 32; stride++ {
		runtime.ReadMemStats(&before)
		run(stride)
		runtime.ReadMemStats(&after)
		if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 64 {
			t.Errorf("the trial at stride %d allocated %d KB, want < 64: its features were not carved from the scratch", stride, kb)
		}
	}
}
