// Tracing: run a small faulted tuning job with the deterministic
// tracer and metrics registry enabled, write the span trace as JSON
// Lines, and print a metrics digest and the command that converts the
// trace into Chrome trace-event JSON. Same-seed runs produce
// byte-identical trace files — which is exactly what ci.sh checks by
// running this program twice and diffing the outputs. Load the Chrome
// file in Perfetto (ui.perfetto.dev) to see the tune → bracket → rung →
// trial → attempt hierarchy sheltering the serving track's request →
// admission → serve → device-attempt spans.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"edgetune"
)

func main() {
	var (
		seed  = flag.Uint64("seed", 7, "job seed; same seed, same bytes")
		trace = flag.String("trace", "trace.jsonl", "JSON Lines span output")
	)
	flag.Parse()

	report, err := edgetune.Tune(context.Background(), edgetune.Job{
		Workload: "IC",
		Configs:  4,
		Rungs:    3,
		Brackets: 1,
		Seed:     *seed,
		Faults: edgetune.FaultConfig{
			TrialCrash:   0.15, // exercise retry + attempt spans
			Straggler:    0.20, // exercise straggler cost inflation
			DeviceFlap:   0.10, // exercise device-attempt retries
			DroppedReply: 0.10, // exercise resubmit + cache-hit spans
		},
		TracePath: *trace,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("tuned %s in %d trials; trace written to %s\n",
		report.Workload, report.TrialsRun, *trace)
	fmt.Printf("for Perfetto: go run ./cmd/tracetool chrome %s trace.json\n", *trace)
	for _, c := range report.Metrics.Counters {
		fmt.Printf("  %-32s %d\n", c.Name, c.Value)
	}
	for _, h := range report.Metrics.Histograms {
		fmt.Printf("  %-32s count=%d p50=%.3g p95=%.3g\n", h.Name, h.Count, h.P50, h.P95)
	}
	fmt.Printf("slo (horizon %.1f simulated minutes):\n", report.SLO.HorizonMinutes)
	for _, o := range report.SLO.Objectives {
		state := "ok"
		if o.Alerting {
			state = "ALERT"
		}
		fmt.Printf("  %-5s %-24s good=%.3f budget-used=%.2f (%d/%d errors)\n",
			state, o.Name, o.GoodFraction, o.ErrorBudgetUsed, o.Errors, o.Events)
	}
}
