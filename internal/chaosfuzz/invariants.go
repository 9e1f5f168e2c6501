package chaosfuzz

import (
	"fmt"
	"math"
)

// Violation is one broken invariant: which one, and the evidence. The
// detail never contains scratch paths, so findings serialise
// identically across machines and runs.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Evidence is everything the invariant registry judges for one
// schedule: the schedule itself, two independent executions of it, and
// (when the schedule qualifies) an unfaulted same-seed twin.
type Evidence struct {
	Schedule Schedule
	// First and Second are two fresh executions of the schedule — the
	// determinism invariant compares their full digests; every per-run
	// invariant reads First.
	First, Second *runOutcome
	// Twin is the unfaulted same-mode same-seed run, present only for
	// schedules whose classes promise outcome convergence.
	Twin *runOutcome
}

// Invariant is one registered system-wide property.
type Invariant struct {
	Name  string
	Check func(Evidence) []Violation
}

// Registry returns every invariant the fuzzer evaluates after each
// schedule, in deterministic order.
func Registry() []Invariant {
	return []Invariant{
		{Name: "store-verify", Check: checkStoreVerify},
		{Name: "determinism", Check: checkDeterminism},
		{Name: "twin-convergence", Check: checkTwinConvergence},
		{Name: "budget-conservation", Check: checkBudgetConservation},
		{Name: "slo-consistency", Check: checkSLOConsistency},
		{Name: "goroutine-leak", Check: checkGoroutineLeak},
	}
}

// EvaluateInvariants runs the whole registry over ev.
func EvaluateInvariants(ev Evidence) []Violation {
	var out []Violation
	for _, inv := range Registry() {
		out = append(out, inv.Check(ev)...)
	}
	return out
}

// checkStoreVerify asserts no durably-acked write is ever lost: every
// replica's store must reopen (recovery terminates and salvages), and
// — when the schedule injected no disk faults — must also scrub
// completely clean (no quarantined frames, no torn tail). Under disk
// faults torn tails are salvage-by-design, so only the reopen half
// applies.
func checkStoreVerify(ev Evidence) []Violation {
	var out []Violation
	disk := ev.Schedule.hasDiskEvents()
	for _, sc := range ev.First.Scrubs {
		if sc.ReopenErr != "" {
			out = append(out, Violation{
				Invariant: "store-verify",
				Detail:    fmt.Sprintf("replica %s failed recovery: %s", sc.Name, sc.ReopenErr),
			})
			continue
		}
		if !disk && !sc.Report.Clean {
			out = append(out, Violation{
				Invariant: "store-verify",
				Detail: fmt.Sprintf("replica %s not clean without disk faults: %d quarantined, %d torn bytes, snapshot quarantined=%v",
					sc.Name, sc.Report.RecordsQuarantined, sc.Report.TruncatedBytes, sc.Report.SnapshotQuarantined),
			})
		}
	}
	return out
}

// checkDeterminism asserts two fresh executions of the same schedule
// agree on the full outcome digest — every fault decision, trial
// record, metric cell, and dossier.
func checkDeterminism(ev Evidence) []Violation {
	if ev.Second == nil || ev.First.Digest == ev.Second.Digest {
		return nil
	}
	return []Violation{{
		Invariant: "determinism",
		Detail:    fmt.Sprintf("same schedule diverged: run1 %s != run2 %s", ev.First.Digest, ev.Second.Digest),
	}}
}

// checkTwinConvergence asserts a failover-only schedule converges to
// the unfaulted twin's answer: shard kills resume from replicated
// checkpoints, partitions and lag only perturb shipping, so the
// winning configuration and recommendation must match.
func checkTwinConvergence(ev Evidence) []Violation {
	if ev.Twin == nil || ev.First.RunErr != nil || ev.Twin.RunErr != nil {
		return nil
	}
	if ev.First.OutcomeDigest == ev.Twin.OutcomeDigest {
		return nil
	}
	return []Violation{{
		Invariant: "twin-convergence",
		Detail: fmt.Sprintf("faulted run answer %s != unfaulted twin %s (failedOver=%v)",
			ev.First.OutcomeDigest, ev.Twin.OutcomeDigest, ev.First.FailedOver),
	}}
}

// checkBudgetConservation recomputes the tuning bill from first
// principles — every trial's training cost plus its retry cost — and
// requires the reported totals to match: retries charged exactly once,
// nothing lost, nothing double-billed. Duration arithmetic is integer
// so the match is exact; energy sums floats in trial order, so it gets
// an epsilon.
func checkBudgetConservation(ev Evidence) []Violation {
	o := ev.First
	if o.RunErr != nil {
		return nil // an aborted job reports partial totals by design
	}
	res := &o.Result
	var wantDur int64
	var wantKJ float64
	for _, t := range res.Trials {
		wantDur += int64(t.TrainCost.Duration) + int64(t.RetryCost.Duration)
		wantKJ += (t.TrainCost.EnergyJ + t.InferTuning.EnergyJ + t.RetryCost.EnergyJ) / 1000
	}
	var out []Violation
	if int64(res.TuningDuration) != wantDur {
		out = append(out, Violation{
			Invariant: "budget-conservation",
			Detail: fmt.Sprintf("reported duration %dns != recomputed %dns (delta %dns over %d trials)",
				int64(res.TuningDuration), wantDur, int64(res.TuningDuration)-wantDur, len(res.Trials)),
		})
	}
	if tol := 1e-9 * math.Max(1, math.Abs(wantKJ)); math.Abs(res.TuningEnergyKJ-wantKJ) > tol {
		out = append(out, Violation{
			Invariant: "budget-conservation",
			Detail: fmt.Sprintf("reported energy %.12gkJ != recomputed %.12gkJ",
				res.TuningEnergyKJ, wantKJ),
		})
	}
	return out
}

// checkSLOConsistency asserts every objective of the job's report is
// internally consistent: errors never exceed events, the compliance
// fraction matches the counts, and no alert window counts more than
// the whole run.
func checkSLOConsistency(ev Evidence) []Violation {
	var out []Violation
	for _, o := range ev.First.Result.SLO.Objectives {
		if o.Errors < 0 || o.Events < 0 || o.Errors > o.Events {
			out = append(out, Violation{
				Invariant: "slo-consistency",
				Detail:    fmt.Sprintf("job objective %s: %d errors over %d events", o.Name, o.Errors, o.Events),
			})
			continue
		}
		if o.Events > 0 {
			want := 1 - float64(o.Errors)/float64(o.Events)
			if math.Abs(o.GoodFraction-want) > 1e-9 {
				out = append(out, Violation{
					Invariant: "slo-consistency",
					Detail: fmt.Sprintf("job objective %s: good fraction %.12g != 1 - %d/%d",
						o.Name, o.GoodFraction, o.Errors, o.Events),
				})
			}
		}
		for _, w := range o.Windows {
			if w.Errors > w.Events || w.Events > o.Events {
				out = append(out, Violation{
					Invariant: "slo-consistency",
					Detail: fmt.Sprintf("job objective %s: window (%d/%d) exceeds run totals (%d/%d)",
						o.Name, w.Errors, w.Events, o.Errors, o.Events),
				})
			}
		}
	}
	return out
}

// checkGoroutineLeak asserts the run shut everything down: after the
// settle period, the goroutine count returned to the pre-run baseline.
func checkGoroutineLeak(ev Evidence) []Violation {
	if ev.First.Leaked == 0 {
		return nil
	}
	return []Violation{{
		Invariant: "goroutine-leak",
		Detail:    fmt.Sprintf("%d goroutine(s) outlived the run", ev.First.Leaked),
	}}
}
