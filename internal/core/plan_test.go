package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"edgetune/internal/budget"
	"edgetune/internal/fault"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/trial"
)

// planOptions is one bracket of the default shape — populations 8, 4,
// 2, 1, 1, 1, 1, 1, so rungs 3 to 7 are the single survivor's tail —
// under the dataset budget: one epoch per trial at a fraction that
// still differs rung by rung, which keeps the dozen jobs below
// affordable under the race detector.
func planOptions() Options {
	o := smallOptions("IC")
	o.InitialConfigs, o.Rungs, o.MaxBrackets = 8, 8, 1
	o.BudgetKind = budget.KindDataset
	return o
}

// atProcs runs the test at the given GOMAXPROCS (procs − 1 helpers) and
// checks on the way out that Tune left no goroutine of its own alive
// and the process-wide helper budget whole.
func atProcs(t *testing.T, procs int) {
	t.Helper()
	testutil.CheckGoroutineLeak(t, 0)
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() {
		if idle := trial.IdleHelpers(); idle != procs-1 {
			t.Errorf("%d helpers idle at GOMAXPROCS %d after Tune returned", idle, procs)
		}
		runtime.GOMAXPROCS(prev)
	})
}

// outcome is everything a job reports that does not depend on whether
// it ran in one piece: a resumed job differs from an uninterrupted one
// in its resumed-rung counter and in the per-run metrics, store
// statistics and SLO events, and in nothing here.
func outcome(t *testing.T, res Result) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Trials                          []TrialRecord
		TrialsRun                       int
		BestConfig, Recommendation      any
		BestAccuracy, BestScore, MaxAcc float64
		Tuning, InferTuning             int64
		EnergyKJ                        float64
		Violations                      int
		Reached, Degraded               bool
	}{res.Trials, res.TrialsRun, res.BestConfig, res.Recommendation,
		res.BestAccuracy, res.BestScore, res.MaxAccuracy,
		int64(res.TuningDuration), int64(res.InferTuningDuration),
		res.TuningEnergyKJ, res.ContainmentViolations, res.ReachedTarget, res.RecommendationDegraded})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTuneDrainsOnEveryExitPath: however a job ends while trainings are
// registered that nobody will read — cancelled in the middle of rung 0,
// cancelled while helpers work on the tail, killed by AfterRung before
// and inside the tail — Tune returns with no goroutine of its own alive
// and the helper budget whole, and a checkpointed job resumed afterwards
// reports what the uninterrupted job reports, byte for byte.
func TestTuneDrainsOnEveryExitPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dozen single-bracket jobs")
	}
	atProcs(t, 3)
	ref := planOptions()
	ref.Checkpoint, ref.Store = true, store.New()
	full, err := Tune(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	want := outcome(t, full)

	t.Run("cancel mid-rung 0", func(t *testing.T) {
		atProcs(t, 3)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts, decisions := planOptions(), 0
		// The observer runs on the tuner's goroutine at every trial's
		// first decision point: the third trial of rung 0 never starts.
		opts.Fault.Observe = func(c fault.Class, _ string, _ int, _ bool) {
			if c == fault.TrialCrash {
				if decisions++; decisions == 3 {
					cancel()
				}
			}
		}
		res, err := Tune(ctx, opts)
		if !errors.Is(err, context.Canceled) || res.TrialsRun != 2 {
			t.Errorf("Tune returned %v after %d trials, want context.Canceled after 2", err, res.TrialsRun)
		}
	})
	t.Run("cancel mid-tail", func(t *testing.T) {
		atProcs(t, 3)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts := planOptions()
		opts.AfterRung = func(_, rung int) error {
			if rung == 3 { // rungs 4-7 are registered; helpers are on 7 and 6
				cancel()
			}
			return nil
		}
		if _, err := Tune(ctx, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("Tune returned %v, want context.Canceled", err)
		}
	})
	for _, kill := range []int{2, 4} {
		kill := kill
		t.Run(fmt.Sprint("killed after rung ", kill), func(t *testing.T) {
			atProcs(t, 3)
			opts := planOptions()
			opts.Checkpoint, opts.Store = true, store.New()
			opts.AfterRung = func(_, rung int) error {
				if rung == kill {
					return errKilled
				}
				return nil
			}
			if _, err := Tune(context.Background(), opts); !errors.Is(err, errKilled) {
				t.Fatalf("kill hook not honoured: %v", err)
			}
			opts.AfterRung = nil
			resumed, err := Tune(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Resilience.ResumedRungs != int64(kill+1) {
				t.Errorf("resumed %d rungs, want %d", resumed.Resilience.ResumedRungs, kill+1)
			}
			if got := outcome(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("the resumed job reports\n%s\nthe uninterrupted one\n%s", got, want)
			}
		})
	}
}

// TestTuneCrashOnSpeculatedTailTrial: a crash fault at attempt 0 of a
// tail rung kills a trial whose training was registered rungs earlier
// and has probably been run; the result is thrown away, the retry trains
// inline, and the job reports exactly what it reports with no helper at
// all.
func TestTuneCrashOnSpeculatedTailTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six single-bracket jobs")
	}
	// Discovery: the crash decision of every trial, in trial order. With
	// populations 8, 4, 2, 1, … and no fault firing, rung r ≥ 3 is trial
	// 11 + r.
	var sites []string
	opts := planOptions()
	opts.Fault.Observe = func(c fault.Class, site string, attempt int, _ bool) {
		if c == fault.TrialCrash && attempt == 0 {
			sites = append(sites, site)
		}
	}
	if _, err := Tune(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if len(sites) != 19 {
		t.Fatalf("discovery saw %d trials, want 19", len(sites))
	}
	for _, rung := range []int{3, 7} {
		plan, err := fault.NewPlan([]fault.Event{{Class: fault.TrialCrash, Site: sites[11+rung], Attempt: 0}})
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, procs := range []int{1, 3} {
			t.Run(fmt.Sprintf("rung %d at GOMAXPROCS %d", rung, procs), func(t *testing.T) {
				atProcs(t, procs)
				opts := planOptions()
				opts.Fault.Plan = plan
				res, err := Tune(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if tr := res.Trials[11+rung]; tr.Rung != rung || tr.Attempts != 2 || res.Resilience.FaultCount(string(fault.TrialCrash)) != 1 {
					t.Errorf("trial %d: rung %d after %d attempts, %v faults; want the planned crash and one retry",
						11+rung, tr.Rung, tr.Attempts, res.Resilience.Faults)
				}
				if got := outcome(t, res); want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("with helpers the job reports\n%s\nwithout\n%s", got, want)
				}
			})
		}
	}
}

// TestFaultDecisionsInTheSameOrderWithHelpers: the split of a trial into
// a pure part helpers may run and a sequential part they may not is
// real — under a fault mix that makes trials crash, diverge, straggle
// and retry, the training-side decision points are consulted in exactly
// the same order with two helpers as with none, every other decision
// point (they are consulted on the server's goroutines, in an order the
// scheduler always chose) the same number of times, and the reports are
// equal.
func TestFaultDecisionsInTheSameOrderWithHelpers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two single-bracket jobs")
	}
	type run struct {
		training []string
		others   map[string]int
		outcome  []byte
	}
	runs := map[int]*run{}
	for _, procs := range []int{1, 3} {
		procs := procs
		t.Run(fmt.Sprint("GOMAXPROCS ", procs), func(t *testing.T) {
			atProcs(t, procs)
			r := &run{others: map[string]int{}}
			runs[procs] = r
			var mu sync.Mutex
			opts := planOptions()
			opts.Fault = fault.Config{TrialCrash: 0.2, TrialNaN: 0.1, Straggler: 0.2, DeviceFlap: 0.1, DroppedReply: 0.1,
				Observe: func(c fault.Class, site string, attempt int, fired bool) {
					mu.Lock()
					defer mu.Unlock()
					key := fmt.Sprintf("%s %s #%d %t", c, site, attempt, fired)
					switch c {
					case fault.TrialCrash, fault.TrialNaN, fault.Straggler:
						r.training = append(r.training, key)
					default:
						r.others[key]++
					}
				}}
			res, err := Tune(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			r.outcome = outcome(t, res)
		})
	}
	seq, par := runs[1], runs[3]
	if seq == nil || par == nil {
		t.Fatal("a run is missing")
	}
	if len(seq.training) < 19*2 {
		t.Fatalf("only %d training-side decisions were observed", len(seq.training))
	}
	if len(par.training) != len(seq.training) {
		t.Fatalf("%d training-side decisions with helpers, %d without", len(par.training), len(seq.training))
	}
	for i := range seq.training {
		if par.training[i] != seq.training[i] {
			t.Fatalf("decision %d with helpers is %q, without %q", i, par.training[i], seq.training[i])
		}
	}
	if len(par.others) != len(seq.others) {
		t.Errorf("%d distinct serving-side decisions with helpers, %d without", len(par.others), len(seq.others))
	}
	for k, n := range seq.others {
		if par.others[k] != n {
			t.Errorf("serving-side decision %q consulted %d times with helpers, %d without", k, par.others[k], n)
		}
	}
	if !bytes.Equal(par.outcome, seq.outcome) {
		t.Errorf("with helpers the job reports\n%s\nwithout\n%s", par.outcome, seq.outcome)
	}
}
