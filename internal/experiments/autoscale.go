package experiments

import (
	"fmt"
	"time"

	"edgetune/internal/autoscale"
)

var autoscaleMemo memo[Table]

// autoscaleTicks is the per-scenario trace length. Four scenarios at
// this length put the whole experiment around a million controller
// evaluations — enough wall time for benchtab's "(regenerated in …s)"
// line to show the decision loop's cost without slowing CI down. What
// one evaluation allocates is internal/hotloop's autoscale.evaluate row.
const autoscaleTicks = 250_000

// BenchmarkAutoscaleDecision measures the autoscaling control loop on
// four synthetic load traces. Every trace is pure arithmetic in the
// tick index, so the decision counts and the FNV-1a decision digest in
// each row are bit-identical on every run; only the wall time recorded
// by benchtab varies with the machine.
func BenchmarkAutoscaleDecision() (Table, error) {
	return autoscaleMemo.do(func() (Table, error) {
		t := Table{
			ID:    "BenchmarkAutoscaleDecision",
			Title: "autoscaling control loop on synthetic load traces",
			Header: []string{
				"scenario", "ticks", "decisions", "up", "down",
				"degrade", "recover", "deepest", "digest",
			},
		}
		scenarios := []struct {
			name string
			// load yields (inSystem, outage) for a tick: the
			// admission-bounded depth seen by the controller and
			// whether the whole pool is unroutable at that tick.
			load func(i int) (int, bool)
		}{
			{"steady", func(i int) (int, bool) {
				return 8 + i%5, false // well under ScaleUpAt: no decisions
			}},
			{"diurnal-surge", func(i int) (int, bool) {
				// Triangular wave with a 5000-tick period: saturation
				// sweeps 0..100% and back, driving scale-up/scale-down
				// cycles through the hysteresis gate.
				p := i % 5000
				if p >= 2500 {
					p = 5000 - p
				}
				return p * 64 / 2500, false
			}},
			{"capacity-loss", func(i int) (int, bool) {
				// Total outage for 200 ticks out of every 20000: the
				// ladder must engage, ride it out, and release.
				return 10, i%20000 < 200
			}},
			{"thrash-guard", func(i int) (int, bool) {
				// Alternate hot and calm every tick: hysteresis must
				// hold the line instead of flapping.
				if i%2 == 0 {
					return 60, false
				}
				return 2, false
			}},
		}
		for _, sc := range scenarios {
			ctl, err := autoscale.New(autoscale.Config{
				Min:        1,
				Max:        4,
				Window:     32,
				WarmupTime: 30 * time.Second,
			})
			if err != nil {
				return Table{}, err
			}
			// The driver owns the simulated pool: one tick per second,
			// scale-ups become routable WarmupTime later, scale-downs
			// retire the youngest replica.
			replicas, readyAt := 1, []time.Duration{0}
			for i := 0; i < autoscaleTicks; i++ {
				at := time.Duration(i) * time.Second
				inSystem, outage := sc.load(i)
				healthy := 0
				if !outage {
					for _, r := range readyAt {
						if r <= at {
							healthy++
						}
					}
				}
				d, ok := ctl.Evaluate(autoscale.Signals{
					At:          at,
					InSystem:    inSystem,
					QueuedAhead: inSystem / 2,
					QueueLimit:  64,
					Replicas:    replicas,
					Healthy:     healthy,
					Good:        !outage && inSystem < 64,
				})
				if !ok {
					continue
				}
				switch {
				case d.Delta > 0:
					replicas++
					readyAt = append(readyAt, at+d.WarmupTime)
				case d.Delta < 0:
					replicas--
					readyAt = readyAt[:len(readyAt)-1]
				}
			}
			rep := ctl.Report()
			t.Rows = append(t.Rows, []string{
				sc.name,
				fmt.Sprint(rep.Ticks),
				fmt.Sprint(rep.Decisions),
				fmt.Sprint(rep.ScaleUps),
				fmt.Sprint(rep.ScaleDowns),
				fmt.Sprint(rep.DegradeSteps),
				fmt.Sprint(rep.RecoverSteps),
				rep.DeepestMode.String(),
				fmt.Sprintf("%016x", rep.Digest),
			})
		}
		t.Notes = []string{
			"steady traffic emits zero decisions; hysteresis holds thrash-guard to single-digit decisions over 250k alternating ticks",
			"every outage and every surge peak walks the ladder to critical-only and releases all rungs on recovery",
		}
		return t, nil
	})
}
