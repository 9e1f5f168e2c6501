package core

import (
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/perfmodel"
	"edgetune/internal/store"
)

// serveResult is one device's attempt-group at a request: the tuned
// entry (on success), the total simulated cost charged across attempts,
// and the terminal error. The cost's Duration doubles as the device's
// serving latency on simulated time. baseline is the fault-free
// (pre-brownout) duration of the last completed search — the perfmodel
// expectation the hedge deadline and health scoring compare against;
// zero when no attempt got as far as the search.
type serveResult struct {
	entry    store.Entry
	cost     perfmodel.Cost
	baseline time.Duration
	err      error
}

// hedgeFactor multiplies the perfmodel-derived expected tuning duration
// into the straggler deadline.
const hedgeFactor = 2

// hedgeOutcome is the merged result of a (possibly hedged) request:
// which device's result won, the combined charged cost, and the
// effective finish time under the simulated-concurrency model.
type hedgeOutcome struct {
	res      serveResult
	winner   *poolDevice
	cost     perfmodel.Cost
	latency  time.Duration
	hedged   bool
	hedgeWon bool
}

// runHedged serves req on the routed primary and, when the primary
// straggles past its deterministic deadline (or fails transiently),
// speculatively re-issues it to the next-best healthy device, taking
// the first result and cancelling the loser.
//
// The deadline is derived from the performance model — the primary's
// fault-free tuning duration times hedgeFactor — never from wall-clock
// randomness, so identically-seeded runs hedge identically. (The
// fault-free duration falls out of the attempt itself: brown-outs
// inflate the charged cost after the search runs, so the pre-inflation
// duration is exactly what a healthy device would have taken.)
// Simulated concurrency replaces real parallelism: the hedge "starts"
// at the deadline (or at the primary's failure time, if earlier), the
// winner is whichever result finishes first on that clock, and the
// loser is charged only the cost it accrued before the winner's
// finish — the cancellation refund.
func (s *InferenceServer) runHedged(req InferRequest, primary route, sp *obs.Span, base time.Duration, sc *scratch) hedgeOutcome {
	pd := primary.pd
	r1 := s.serveOn(req, pd, sp, base, sc)
	expected := r1.baseline
	deadline := expected * hedgeFactor
	s.pool.observe(primary, r1.err, r1.cost.Duration, expected, base+r1.cost.Duration)

	out := hedgeOutcome{res: r1, winner: pd, cost: r1.cost, latency: r1.cost.Duration}
	straggled := r1.err == nil && deadline > 0 && r1.cost.Duration > deadline
	// Injected device faults are worth re-issuing elsewhere; caller
	// cancellations and deadline expiries are not.
	failed := fault.IsFault(r1.err)
	if len(s.pool.devs) < 2 || (!straggled && !failed) {
		return out
	}
	if s.degradeMode() >= autoscale.ModeNoHedging {
		// The degradation ladder has switched hedging off: worst-case
		// device load per request matters more than tail latency now.
		return out
	}
	second, err := s.pool.next(pd, base)
	if err != nil {
		return out // nowhere to hedge; keep the primary result
	}

	s.opts.Recorder.AddHedge()

	// The hedge launches at the straggler deadline, or at the primary's
	// failure time when that is what triggered it.
	start := deadline
	if failed && (deadline == 0 || r1.cost.Duration < deadline) {
		start = r1.cost.Duration
	}
	var hsp *obs.Span
	if sp != nil {
		reason := "straggler"
		if failed {
			reason = "primary-failed"
		}
		hsp = sp.Child("hedge", base+start,
			obs.Str("device", second.pd.name),
			obs.Str("reason", reason))
	}

	r2 := s.serveOn(req, second.pd, hsp, base+start, sc)
	s.pool.observe(second, r2.err, r2.cost.Duration, r2.baseline, base+start+r2.cost.Duration)

	d1 := r1.cost.Duration
	d2 := start + r2.cost.Duration

	out.hedged = true
	switch {
	case r2.err == nil && (r1.err != nil || d2 < d1):
		// Secondary wins; the primary is cancelled at the finish line
		// and charged only its overlap.
		s.opts.Recorder.AddHedgeWin()
		out.hedgeWon = true
		out.res = r2
		out.winner = second.pd
		out.latency = d2
		out.cost = r2.cost.Add(scaleCost(r1.cost, overlap(d2, d1)))
	case r1.err == nil:
		// Primary finished first (or the hedge failed); the hedge is
		// cancelled at the primary's finish and charged its overlap.
		out.latency = d1
		out.cost = r1.cost.Add(scaleCost(r2.cost, overlap(d1-start, r2.cost.Duration)))
	default:
		// Both failed: the full cost of both attempts is charged and
		// the primary's error stands.
		out.latency = max(d1, d2)
		out.cost = r1.cost.Add(r2.cost)
	}
	if hsp != nil {
		hsp.Set(obs.Bool("won", out.hedgeWon))
		hsp.End(base + d2)
	}
	return out
}

// overlap is the fraction of a loser's duration that elapsed before it
// was cancelled, clamped to [0, 1].
func overlap(ran, full time.Duration) float64 {
	if full <= 0 || ran >= full {
		return 1
	}
	if ran <= 0 {
		return 0
	}
	return float64(ran) / float64(full)
}

func scaleCost(c perfmodel.Cost, f float64) perfmodel.Cost {
	return perfmodel.Cost{
		Duration: time.Duration(float64(c.Duration) * f),
		EnergyJ:  c.EnergyJ * f,
	}
}
