package edgetune

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"edgetune/internal/cluster"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/slo"
)

// ClusterOptions configures a sharded multi-tenant tuning cluster: N
// simulated nodes, each pairing the tuner + inference server with a
// crash-consistent durable store, behind a dispatcher that
// consistent-hash-shards jobs, enforces per-tenant quotas, and ships
// every shard's write-ahead log to a follower for failover.
type ClusterOptions struct {
	// Shards is the node-pair count (default 2).
	Shards int
	// Dir is the directory holding every node's store files: each shard
	// gets Dir/shard<i>/{primary,follower}. Required.
	Dir string
	// TenantRate and TenantBurst configure the dispatcher's per-tenant
	// token bucket: each tenant earns TenantRate tokens per cluster
	// submission and holds at most TenantBurst (rate 0 disables quotas,
	// burst default 4). Rejections surface as ErrTenantQuota, per-tenant
	// counters, and the cluster/tenant-admission SLO.
	TenantRate  float64
	TenantBurst int
	// Seed drives the cluster's fault injector.
	Seed uint64
	// Faults configures the cluster fault classes (ShardKill,
	// NetPartition, FollowerLag); job-level classes belong on each Job.
	Faults FaultConfig
	// KillShardAfterRungs, when positive, deterministically kills a
	// job's shard at its Nth completed rung (while the shard still has a
	// follower) — the scripted chaos hook the failover gate uses.
	KillShardAfterRungs int
	// SnapshotEvery compacts each primary's WAL after this many records
	// (default 256).
	SnapshotEvery int
	// TracePath, when set, writes the cluster's dispatcher spans (job
	// routing, failovers) as JSON Lines at Close.
	TracePath string
	// DebugAddr, when set (e.g. "localhost:0"), serves the cluster's
	// debug endpoints: the dispatcher registry on /metrics*, a merged
	// /metrics/prom where every shard's store instruments carry a
	// shard="<name>" label alongside the unlabeled cluster series, and
	// — as a single-node job's server does — /slo and /analyze over the
	// cluster's objectives and spans (so it turns tracing on even
	// without TracePath).
	DebugAddr string
	// Flight gives every shard its own always-on flight recorder: WAL
	// appends, replication shipping, serving events, and failovers land
	// on the shard's ring, and a shard kill fires the shard-failover
	// trigger. The recorder outlives the failover, so one dossier spans
	// the kill, the promotion, and the resumed run. Incidents (and
	// ClusterReport.Incidents) expose the dossiers.
	Flight bool
	// IncidentsDir, when set (implies Flight), writes every shard's
	// incident dossiers at Close/Drain as JSON artefacts named
	// <shard>-incident-<seq>-<trigger>.json.
	IncidentsDir string
}

// Cluster is a running sharded tuning cluster. Tune routes jobs to
// shards; Close (or Drain) seals every node's store.
type Cluster struct {
	inner        *cluster.Cluster
	reg          *obs.Registry
	ev           *slo.Evaluator
	tracer       *obs.Tracer
	path         string
	incidentsDir string
	dbg          *obs.DebugServer
}

// ClusterReport is a completed cluster job's outcome.
type ClusterReport struct {
	*Report
	// Shard is the node the job ran on.
	Shard string
	// FailedOver reports that the job survived its shard's death by
	// WAL-shipped failover to the follower.
	FailedOver bool
}

// NewCluster starts a cluster. Callers must Close (or Drain) it.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.IncidentsDir != "" {
		opts.Flight = true
	}
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	var tracer *obs.Tracer
	if opts.TracePath != "" || opts.DebugAddr != "" {
		tracer = obs.NewTracer()
	}
	inner, err := cluster.New(cluster.Options{
		Shards:              opts.Shards,
		Dir:                 opts.Dir,
		TenantRate:          opts.TenantRate,
		TenantBurst:         opts.TenantBurst,
		Seed:                opts.Seed,
		Fault:               opts.Faults.toInternal(),
		KillShardAfterRungs: opts.KillShardAfterRungs,
		SnapshotEvery:       opts.SnapshotEvery,
		Metrics:             reg,
		SLO:                 ev,
		Trace:               tracer,
		Flight:              opts.Flight,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{inner: inner, reg: reg, ev: ev, tracer: tracer,
		path: opts.TracePath, incidentsDir: opts.IncidentsDir}
	if opts.DebugAddr != "" {
		handlers := debugHandlers(ev, tracer)
		// Override the single-registry exposition with the merged
		// cluster view: dispatcher series unlabeled, each shard's store
		// series labeled shard="<name>".
		handlers["/metrics/prom"] = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			parts := []obs.LabeledSnapshot{{Snapshot: c.reg.Snapshot()}}
			shards := c.inner.ShardMetrics()
			names := make([]string, 0, len(shards))
			for name := range shards {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				parts = append(parts, obs.LabeledSnapshot{Value: name, Snapshot: shards[name]})
			}
			obs.WritePrometheusLabeled(w, "shard", parts)
		})
		dbg, err := obs.StartDebugServerOpts(opts.DebugAddr, obs.DebugOptions{Registry: reg, Handlers: handlers})
		if err != nil {
			inner.Close()
			return nil, fmt.Errorf("edgetune: cluster debug server: %w", err)
		}
		c.dbg = dbg
	}
	return c, nil
}

// DebugAddr reports the bound debug listen address ("" when disabled).
func (c *Cluster) DebugAddr() string { return c.dbg.Addr() }

// Tune runs one job on the shard owning its key (the tenant/workload
// pair), failing over mid-job if that shard's primary is killed. Jobs
// sharing a shard serialize and share its historical store; jobs on
// different shards run concurrently. A job that configures single-node
// storage (StorePath, and the disk-fault hooks that ride on it) is
// rejected — the cluster's shards own their durable stores.
func (c *Cluster) Tune(ctx context.Context, job Job) (*ClusterReport, error) {
	if job.StorePath != "" {
		return nil, errors.New("edgetune: cluster jobs must not set StorePath (shards own their stores)")
	}
	opts, err := job.coreOptions()
	if err != nil {
		return nil, err
	}
	// Per-job observability: each job's metrics, SLO events, and
	// resilience counters stay on its own registry (exactly as a
	// single-node Tune), with the dispatcher's cluster instruments kept
	// separately on the cluster registry.
	opts.Metrics = obs.NewRegistry()
	opts.SLO = slo.NewEvaluator()
	opts.Trace = c.tracer
	probes, err := job.probe(opts.Metrics)
	if err != nil {
		return nil, err
	}

	tenant := job.Tenant
	if tenant == "" {
		tenant = "default"
	}
	res, err := c.inner.Submit(ctx, cluster.Job{
		Key:    fmt.Sprintf("%s/%s", tenant, job.Workload),
		Tenant: tenant,
		Opts:   opts,
	})
	if err != nil {
		return nil, err
	}
	rep := buildReport(res.Result)
	rep.Profile = probes
	return &ClusterReport{
		Report:     rep,
		Shard:      res.Shard,
		FailedOver: res.FailedOver,
	}, nil
}

// Shards lists the cluster's shard names.
func (c *Cluster) Shards() []string { return c.inner.Shards() }

// Metrics snapshots the dispatcher's cluster-level instruments: job
// routing, failovers, WAL shipping, and per-tenant quota rejections.
func (c *Cluster) Metrics() MetricsReport { return c.reg.Snapshot() }

// ShardMetrics snapshots each shard's store instruments, keyed by shard
// name — the same per-shard series the debug endpoint's merged
// /metrics/prom labels with shard="<name>".
func (c *Cluster) ShardMetrics() map[string]MetricsReport { return c.inner.ShardMetrics() }

// SLO evaluates the cluster's service-level objectives (currently the
// tenant-admission objective).
func (c *Cluster) SLO() SLOReport {
	return buildSLOReport(c.ev.Snapshot())
}

// Incidents summarises each shard's flight-recorder dossiers, keyed by
// shard name (empty without ClusterOptions.Flight, or when no trigger
// fired). Call after the shard's jobs have finished; the build is
// repeatable. The full artefacts land in IncidentsDir at Close/Drain.
func (c *Cluster) Incidents() map[string][]Incident {
	out := make(map[string][]Incident)
	for name, ds := range c.inner.Incidents() {
		sums := make([]Incident, 0, len(ds))
		for _, d := range ds {
			sums = append(sums, summariseIncident(d))
		}
		out[name] = sums
	}
	return out
}

// Drain stops the cluster gracefully: in-flight jobs finish (bounded
// by ctx) before every shard's store is sealed.
func (c *Cluster) Drain(ctx context.Context) error {
	err := c.saveIncidents(c.inner.Drain(ctx))
	c.dbg.Close()
	return c.saveTrace(err)
}

// Close cancels in-flight jobs and seals every shard's store.
// Idempotent.
func (c *Cluster) Close() error {
	err := c.saveIncidents(c.inner.Close())
	c.dbg.Close()
	return c.saveTrace(err)
}

func (c *Cluster) saveTrace(err error) error {
	if c.tracer == nil || c.path == "" {
		return err
	}
	path := c.path
	c.path = "" // write once
	if serr := c.tracer.SaveJSONL(path); serr != nil && err == nil {
		err = fmt.Errorf("edgetune: write cluster trace: %w", serr)
	}
	return err
}

// saveIncidents writes every shard's dossiers under the shard's name
// prefix, once, at shutdown — after the jobs (and any failover rerun)
// have quiesced, so the artefacts are the deterministic final builds.
func (c *Cluster) saveIncidents(err error) error {
	if c.incidentsDir == "" {
		return err
	}
	dir := c.incidentsDir
	c.incidentsDir = "" // write once
	for shard, ds := range c.inner.Incidents() {
		if _, werr := flight.WriteDossiers(dir, shard, ds); werr != nil && err == nil {
			err = fmt.Errorf("edgetune: write cluster incidents: %w", werr)
		}
	}
	return err
}

// ErrTenantQuota is returned by Cluster.Tune when the submitting
// tenant's token bucket is empty.
var ErrTenantQuota = cluster.ErrTenantQuota
