// Command edgetune runs an inference-aware tuning job from the command
// line and prints the tuned configuration and inference recommendation.
//
// Usage:
//
//	edgetune -workload IC [flags]
//	edgetune -job job.json [flags]
//	edgetune -workload IC -cluster 2 -cluster-dir ./cluster [flags]
//
// edgetune -help lists every flag; flagTable below is that list.
//
// With -job, the job is read from a JSON file matching the edgetune.Job
// structure, and every flag given beside it overrides the file's value
// for that field. With -cluster N, the job runs on a sharded
// multi-tenant cluster of N simulated nodes: jobs are
// consistent-hash-routed by tenant and workload, every shard journals
// to a write-ahead log shipped to a follower, and a killed shard fails
// over to its follower mid-job.
//
// With -store the historical database is crash-consistent, and
// -store-kill-after N makes the binary its own crash harness: the
// process dies (exit 3) right after the Nth acknowledged WAL append.
// Restarted with the same flags until it exits 0, every restart recovers
// from disk and resumes from the last completed rung, and the report's
// "digest:" line equals an uninterrupted same-seed run's.
//
// With -flight, an always-on flight recorder captures a compact event
// stream from both pipelines into a preallocated ring; anomaly
// triggers (SLO alerts, shard failover, crash salvage) cut
// deterministic incident dossiers into the report, written as JSON
// artefacts under -incidents-dir. In cluster mode each shard gets its
// own recorder and its dossiers are written (shard-prefixed) when the
// cluster closes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"

	"edgetune"
	"edgetune/internal/fault"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		printError(os.Stderr, err)
		os.Exit(1)
	}
}

// printError writes the line a failed run exits with. A command line
// the flag set rejected gets a second line, a pointer to -help, instead
// of the whole flag list.
func printError(w io.Writer, err error) {
	fmt.Fprintln(w, "edgetune:", err)
	if errors.As(err, new(badArgs)) {
		fmt.Fprintln(w, "edgetune: run 'edgetune -help' for the list of flags")
	}
}

// badArgs is a command line the flag set rejected: a flag it does not
// define, or a value the flag's type does not parse.
type badArgs struct{ error }

// bound is the range a flag's value must lie in, whether the value came
// from the command line or from the job file.
type bound int

const (
	free   bound = iota // any value the flag's type holds
	nonNeg              // not negative
)

// flagRow is one flag: its name, the field it sets, the bound its value
// is checked against and its -help text.
type flagRow struct {
	name  string
	dst   any // *string, *bool, *int, *uint64 or a flag.Value
	bound bound
	usage string
}

// invocation holds what the flags say about this run of the binary
// rather than about the job.
type invocation struct {
	jobPath     string
	asJSON      bool
	showMetrics bool
	cpuProfile  string
}

// flagTable is the command line: every flag, bound to the field of the
// invocation, the job or the cluster it sets.
func flagTable(inv *invocation, job *edgetune.Job, cl *edgetune.ClusterOptions) []flagRow {
	return []flagRow{
		{"job", &inv.jobPath, free, "read the job from a JSON file; flags given beside it override the file"},
		{"json", &inv.asJSON, free, "print the report as JSON"},
		{"metrics", &inv.showMetrics, free, "print the full metrics snapshot and SLO evaluation after the report"},
		{"cpuprofile", &inv.cpuProfile, free, "write a CPU profile of the run to this file (its samples carry the pprof labels with -profile)"},

		{"workload", &job.Workload, free, "workload to tune: IC, SR, NLP, or OD"},
		{"device", &job.Device, free, "edge device: i7, armv7, or rpi3b+ (default i7)"},
		{"budget", (*string)(&job.Budget), free, "trial budget: epochs, dataset, or multi (default multi)"},
		{"metric", (*string)(&job.Metric), free, "objective: runtime or energy (default runtime)"},
		{"model-algo", (*string)(&job.ModelAlgorithm), free, "model-server search algorithm (default bohb)"},
		{"infer-algo", (*string)(&job.InferenceAlgorithm), free, "inference-server search algorithm (default bohb)"},
		{"hierarchical", &job.Hierarchical, free, "use two-tier hierarchical tuning instead of onefold"},
		{"no-inference", &job.WithoutInference, free, "disable the inference tuning server"},
		{"stop-at-target", &job.StopAtTarget, free, "stop once the target accuracy is reached"},
		{"store", &job.StorePath, free, "persist the historical inference database to this JSON file, crash-consistently: every mutation is journalled to a checksummed write-ahead log beside it"},
		{"store-kill-after", &job.StoreKillAfterAppends, nonNeg, "chaos: kill the process (exit 3) right after the Nth acknowledged WAL append (inert without -store)"},
		{"seed", &job.Seed, free, "random seed (jobs are deterministic per seed)"},
		{"tenant", &job.Tenant, free, "tenant the job is submitted as (default \"default\")"},
		{"max-attempts", &job.MaxTrialAttempts, nonNeg, "retry cap per training trial under faults (default 3)"},
		{"checkpoint", &job.Checkpoint, free, "checkpoint completed rungs for resumable tuning"},

		{"faults", &job.Faults, free, "inject faults: a `spec` of comma-separated class=probability pairs, each set over the job file's, plus brownout-factor=N, the maximum brown-out slowdown (default 6); disk classes need -store and no -cluster, cluster classes -cluster; classes: " + fmt.Sprint(fault.Classes())},

		{"cluster", &cl.Shards, nonNeg, "run the job on a sharded cluster with this many nodes (requires -cluster-dir)"},
		{"cluster-dir", &cl.Dir, free, "directory holding every cluster node's durable store"},
		{"cluster-kill-rungs", &cl.KillShardAfterRungs, nonNeg, "chaos: kill the job's shard after its Nth completed rung and fail over to the follower"},

		{"trace", &job.TracePath, free, "write the deterministic span trace as JSON Lines to this file"},
		{"debug-addr", &job.DebugAddr, free, "serve /metrics, /metrics/prom, /healthz, /slo, /analyze, /flight, /debug/vars, and /debug/pprof on this address while tuning"},
		{"profile", &job.Profile, free, "enable the profiling plane: pprof label attribution on both pipelines plus per-stage allocation probes in the report"},
		{"flight", &job.Flight, free, "enable the always-on flight recorder: anomaly triggers cut deterministic incident dossiers into the report"},
		{"incidents-dir", &job.IncidentsDir, free, "write each incident dossier as a JSON artefact into this directory (implies -flight)"},
	}
}

// parse reads args into the rows' fields. A flag's default is whatever
// its field already holds, so parsing changes only what the user set.
// Of what the flag set prints, only -help's flag list reaches stderr: a
// rejected command line is returned as badArgs, for printError.
func parse(args []string, rows []flagRow) error {
	fs := flag.NewFlagSet("edgetune", flag.ContinueOnError)
	for _, r := range rows {
		switch p := r.dst.(type) {
		case *string:
			fs.StringVar(p, r.name, *p, r.usage)
		case *bool:
			fs.BoolVar(p, r.name, *p, r.usage)
		case *int:
			fs.IntVar(p, r.name, *p, r.usage)
		case *uint64:
			fs.Uint64Var(p, r.name, *p, r.usage)
		case flag.Value:
			fs.Var(p, r.name, r.usage)
		default:
			panic(fmt.Sprintf("flag -%s: no binding for a %T", r.name, p))
		}
	}
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	err := fs.Parse(args)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Stderr.Write(usage.Bytes())
		return err
	case err != nil:
		return badArgs{err}
	}
	return nil
}

// check fails fast on a malformed value, before any tuning work starts,
// with a one-line error naming the flag, whether the value came from the
// command line or the job file. The bounds helpers and the fault scope
// rule are the ones the chaos fuzzer's schedule validation runs through,
// so the two surfaces cannot drift.
func check(rows []flagRow, job *edgetune.Job, cl *edgetune.ClusterOptions) error {
	var nonNegs []fault.NamedValue
	for _, r := range rows {
		if r.bound == nonNeg {
			nonNegs = append(nonNegs, fault.NamedValue{Name: "-" + r.name, Value: float64(*r.dst.(*int))})
		}
	}
	if err := fault.CheckNonNegative(nonNegs); err != nil {
		return err
	}
	probs := job.Faults.ProbValues()
	err := fault.CheckProbs(probs)
	if err == nil {
		err = fault.CheckNonNegative([]fault.NamedValue{{Name: "brownout-factor", Value: job.Faults.BrownoutFactor}})
	}
	for _, p := range probs {
		if err == nil && p.Value > 0 {
			err = fault.Class(p.Name).Scope(job.StorePath != "", cl.Shards > 0)
		}
	}
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	return nil
}

func run(args []string, out io.Writer) error {
	var (
		inv invocation
		job = edgetune.Job{Seed: 1}
		cl  edgetune.ClusterOptions
	)
	rows := flagTable(&inv, &job, &cl)
	if err := parse(args, rows); err != nil {
		return err
	}
	if inv.jobPath != "" {
		// The file is the job; the same arguments read again over it
		// leave it alone except where the user set a flag.
		data, err := os.ReadFile(inv.jobPath)
		if err != nil {
			return err
		}
		job = edgetune.Job{}
		if err := json.Unmarshal(data, &job); err != nil {
			return fmt.Errorf("parse %s: %w", inv.jobPath, err)
		}
		if err := parse(args, rows); err != nil {
			return err
		}
	}
	if err := check(rows, &job, &cl); err != nil {
		return err
	}

	if inv.cpuProfile != "" {
		f, err := os.Create(inv.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if cl.Shards > 0 {
		if cl.Dir == "" {
			return errors.New("-cluster requires -cluster-dir")
		}
		// The cluster seeds its own fault injector, which fires the
		// cluster classes of the job's faults, and owns each shard's
		// durable store, the trace, the debug server and the flight
		// recorders (one ring per shard, artefacts written shard-prefixed
		// at Close); the job's fields for those are inert on a cluster job.
		cl.Seed, cl.TracePath, cl.Faults = job.Seed, job.TracePath, job.Faults
		cl.Flight, cl.IncidentsDir, cl.DebugAddr = job.Flight, job.IncidentsDir, job.DebugAddr
		return runCluster(out, cl, job, inv)
	}

	report, err := edgetune.Tune(context.Background(), job)
	if err != nil {
		return err
	}
	if inv.asJSON {
		return writeJSON(out, report)
	}
	printReport(out, report)
	if inv.showMetrics {
		printMetrics(out, report.Metrics)
		printSLO(out, report.SLO)
	}
	return nil
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runCluster executes the job on a freshly started sharded cluster and
// renders the report plus the dispatcher's view (owning shard,
// failover, cluster metrics).
func runCluster(out io.Writer, copts edgetune.ClusterOptions, job edgetune.Job, inv invocation) error {
	c, err := edgetune.NewCluster(copts)
	if err != nil {
		return err
	}
	rep, tuneErr := c.Tune(context.Background(), job)
	incidents := c.Incidents()
	if closeErr := c.Close(); tuneErr == nil {
		tuneErr = closeErr
	}
	if tuneErr != nil {
		return tuneErr
	}

	if inv.asJSON {
		return writeJSON(out, rep)
	}
	printReport(out, rep.Report)
	fmt.Fprintf(out, "  cluster:\n")
	fmt.Fprintf(out, "    shards            %d\n", len(c.Shards()))
	fmt.Fprintf(out, "    ran on            %s\n", rep.Shard)
	fmt.Fprintf(out, "    failed over       %v\n", rep.FailedOver)
	if len(incidents) > 0 {
		shardNames := make([]string, 0, len(incidents))
		for name := range incidents {
			shardNames = append(shardNames, name)
		}
		sort.Strings(shardNames)
		fmt.Fprintf(out, "    incidents:\n")
		for _, name := range shardNames {
			for _, inc := range incidents[name] {
				fmt.Fprintf(out, "      %s #%d %-17s at %.1fm  events=%d  %s\n",
					name, inc.Seq, inc.Trigger, inc.AtMinutes, inc.Events, inc.Digest)
			}
		}
	}
	if inv.showMetrics {
		printMetrics(out, rep.Metrics)
		printSLO(out, rep.SLO)
		fmt.Fprintf(out, "  cluster metrics:\n")
		for _, ctr := range c.Metrics().Counters {
			fmt.Fprintf(out, "    counter   %-36s %d\n", ctr.Name, ctr.Value)
		}
	}
	return nil
}

// printSLO renders the objective evaluations after the metrics dump:
// overall compliance plus the per-window burn rates behind each alert.
func printSLO(out io.Writer, s edgetune.SLOReport) {
	if len(s.Objectives) == 0 {
		return
	}
	fmt.Fprintf(out, "  slo (horizon %.1f simulated minutes):\n", s.HorizonMinutes)
	for _, o := range s.Objectives {
		state := "ok"
		if o.Alerting {
			state = "ALERT"
		}
		fmt.Fprintf(out, "    %-5s %-24s target=%.2f good=%.3f budget-used=%.2f events=%d errors=%d\n",
			state, o.Name, o.Target, o.GoodFraction, o.ErrorBudgetUsed, o.Events, o.Errors)
		for _, w := range o.Windows {
			fmt.Fprintf(out, "          window %5.1fm burn=%.2f (%d/%d errors, threshold %.1f)\n",
				w.WindowMinutes, w.BurnRate, w.Errors, w.Events, o.BurnThreshold)
		}
	}
}

// printMetrics dumps the full metrics snapshot in its (sorted) registry
// order, so the text output is byte-stable across same-seed runs.
func printMetrics(out io.Writer, m edgetune.MetricsReport) {
	fmt.Fprintf(out, "  metrics:\n")
	for _, c := range m.Counters {
		fmt.Fprintf(out, "    counter   %-36s %d\n", c.Name, c.Value)
	}
	for _, g := range m.Gauges {
		fmt.Fprintf(out, "    gauge     %-36s %g\n", g.Name, g.Value)
	}
	for _, h := range m.Histograms {
		fmt.Fprintf(out, "    histogram %-36s count=%d p50=%.3g p95=%.3g p99=%.3g\n",
			h.Name, h.Count, h.P50, h.P95, h.P99)
	}
}

func printReport(out io.Writer, r *edgetune.Report) {
	fmt.Fprintf(out, "EdgeTune report — workload %s on device %s (objective: %s)\n",
		r.Workload, r.Device, r.Metric)
	fmt.Fprintf(out, "  trials run:        %d (cache hits/misses: %d/%d)\n",
		r.TrialsRun, r.CacheHits, r.CacheMisses)
	if sr := r.StoreRecovery; sr != nil {
		fmt.Fprintf(out, "  store recovery:    %s snapshot, %d replayed, %d quarantined, %d bytes truncated → %d entries, %d checkpoints\n",
			sr.SnapshotSource, sr.RecordsReplayed, sr.RecordsQuarantined, sr.TruncatedBytes, sr.Entries, sr.Checkpoints)
	}
	fmt.Fprintf(out, "  tuning cost:       %.1f simulated minutes, %.1f kJ\n",
		r.TuningMinutes, r.TuningEnergyKJ)
	fmt.Fprintf(out, "  best accuracy:     %.3f (max observed %.3f, target reached: %v)\n",
		r.BestAccuracy, r.MaxAccuracy, r.ReachedTarget)
	fmt.Fprintf(out, "  best configuration:\n")
	keys := make([]string, 0, len(r.BestConfig))
	for k := range r.BestConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "    %-12s %g\n", k, r.BestConfig[k])
	}
	rec := r.Recommendation
	if rec.BatchSize > 0 {
		label := "inference recommendation"
		if r.RecommendationDegraded {
			label += " (degraded fallback)"
		}
		fmt.Fprintf(out, "  %s (%s):\n", label, rec.Device)
		fmt.Fprintf(out, "    batch size    %d\n", rec.BatchSize)
		fmt.Fprintf(out, "    cores         %d\n", rec.Cores)
		fmt.Fprintf(out, "    frequency     %.2f GHz\n", rec.FrequencyGHz)
		fmt.Fprintf(out, "    throughput    %.1f samples/s\n", rec.Throughput)
		fmt.Fprintf(out, "    energy        %.3f J/sample\n", rec.EnergyPerSampleJ)
	}
	fmt.Fprintf(out, "  digest:            %s\n", r.Digest())
	if len(r.Profile) > 0 {
		fmt.Fprintf(out, "  profile (allocs/op, bytes/op):\n")
		for _, p := range r.Profile {
			fmt.Fprintf(out, "    %-22s %8.1f  %10.0f\n", p.Stage, p.AllocsPerOp, p.BytesPerOp)
		}
	}
	if len(r.Incidents) > 0 {
		fmt.Fprintf(out, "  incidents:\n")
		for _, inc := range r.Incidents {
			fmt.Fprintf(out, "    #%d %-17s at %.1fm  events=%d  %s\n",
				inc.Seq, inc.Trigger, inc.AtMinutes, inc.Events, inc.Digest)
			if inc.Path != "" {
				fmt.Fprintf(out, "       dossier %s\n", inc.Path)
			}
		}
	}
	res := r.Resilience
	if res.TotalFaults > 0 || res.Retries > 0 || res.ResumedRungs > 0 {
		fmt.Fprintf(out, "  resilience:\n")
		fmt.Fprintf(out, "    faults injected   %d\n", res.TotalFaults)
		for _, f := range res.Faults {
			fmt.Fprintf(out, "      %-15s %d\n", f.Class, f.Count)
		}
		fmt.Fprintf(out, "    retries           %d\n", res.Retries)
		fmt.Fprintf(out, "    breaker open/half/close  %d/%d/%d\n",
			res.BreakerOpens, res.BreakerHalfOpens, res.BreakerCloses)
		fmt.Fprintf(out, "    degraded outcomes %d\n", res.Degraded)
		if res.ResumedRungs > 0 {
			fmt.Fprintf(out, "    resumed rungs     %d\n", res.ResumedRungs)
		}
	}
	// Serving counters, printed in a fixed order so reports are
	// byte-stable across identically-seeded runs.
	if res.Shed > 0 || res.Quarantines > 0 || res.Probes > 0 || res.Drained > 0 {
		fmt.Fprintf(out, "  serving:\n")
		fmt.Fprintf(out, "    shed              %d\n", res.Shed)
		fmt.Fprintf(out, "    quarantines       %d\n", res.Quarantines)
		fmt.Fprintf(out, "    probes            %d\n", res.Probes)
		fmt.Fprintf(out, "    drained           %d\n", res.Drained)
	}
}
