// Package cluster is the scale-out layer of the tuning service: N
// simulated nodes — each wrapping the existing tuner, inference server,
// and crash-consistent durable store — behind a dispatcher that
// consistent-hash-shards tuning jobs and replicates every shard's
// write-ahead log to a follower, so a killed shard fails over and
// resumes from its last checkpointed rung. Neither the dispatcher nor
// the serving layer rate-limits a job.
//
// The correctness claim is inherited from the durability layer: a rung
// checkpoint captures the tuner's full resumable state (sampler stream
// included), and every store mutation rides the WAL that shipping
// replicates. Promotion is therefore just the normal recovery replay
// over the follower's copy of the log, and a failed-over job converges
// to the same recommendation digest as an uninterrupted same-seed run
// — the invariant the chaos gate asserts.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"edgetune/internal/core"
	"edgetune/internal/counters"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/prof"
)

// ErrShardKilled is the injected death of a shard's primary node; the
// dispatcher catches it and fails over.
var ErrShardKilled = errors.New("cluster: shard primary killed")

// ErrClusterClosed is returned by submissions after Close/Drain.
var ErrClusterClosed = errors.New("cluster: closed")

// Options configures a Cluster.
type Options struct {
	// Shards is the node-pair count (default 2).
	Shards int
	// Dir is the root directory holding every node's store; each shard
	// gets Dir/shard<i>/{primary,follower}. Required.
	Dir string
	// Seed drives the cluster's fault injector (decorrelated from the
	// per-job seeds).
	Seed uint64
	// Fault configures the cluster fault classes: ShardKill per rung
	// boundary, NetPartition and FollowerLag per shipped WAL frame.
	// Job-level classes belong in the job's own options instead.
	Fault fault.Config
	// KillShardAfterRungs, when positive, deterministically kills a
	// job's shard at its Nth completed rung (first job per shard only —
	// a degraded shard has no follower left and is spared). This is the
	// chaos gate's scripted kill; Fault.ShardKill is the probabilistic
	// variant.
	KillShardAfterRungs int
	// Metrics receives the cluster instruments (nil = off); per-job
	// metrics stay on each job's own registry.
	Metrics *obs.Registry
	// Trace receives per-job cluster spans on TrackCluster (nil = off).
	Trace *obs.Tracer
	// Flight enables a per-shard flight recorder: each shard's WAL,
	// shipping, serving, and failover events land on its own ring, and
	// Incidents aggregates the dossiers. The recorder outlives a
	// failover, so one dossier spans the kill and the resumed run.
	Flight bool
	// FlightSlots sizes each shard's ring (default flight.DefaultSlots).
	FlightSlots int
}

// Job is one tuning job routed through the dispatcher.
type Job struct {
	// Key is the sharding key (required); equal keys land on the same
	// shard and therefore share its historical store.
	Key string
	// Tenant names the submitting client (default "default"). It is
	// stamped into the job's options so the node's serving path, pprof
	// labels and spans carry the same identity.
	Tenant string
	// Opts is the job to run. Store and AfterRung are owned by the
	// dispatcher: Store must be nil (each shard supplies its durable
	// store), and Checkpoint is forced on — failover resumes from the
	// replicated rung checkpoints.
	Opts core.Options
}

// Result is a completed cluster job.
type Result struct {
	core.Result
	// Shard is the node the job ran on.
	Shard string
	// FailedOver reports that the shard's primary was killed mid-job
	// and the job finished on the promoted follower.
	FailedOver bool
}

// Cluster is the sharded dispatcher.
type Cluster struct {
	opts   Options
	ring   *Ring
	shards map[string]*shard
	inj    *fault.Injector

	mu        sync.Mutex
	inflightC map[*Job]context.CancelFunc

	wg       sync.WaitGroup
	shutMu   sync.Mutex
	shutting bool
	closedCh chan struct{}
	closeErr error

	mJobs      *obs.Counter
	mFailovers *obs.Counter
}

// New opens a cluster: Shards node pairs under Dir and a populated
// ring. Callers must Close (or Drain) it.
func New(opts Options) (*Cluster, error) {
	if opts.Dir == "" {
		return nil, errors.New("cluster: options need a directory")
	}
	if opts.Shards == 0 {
		opts.Shards = 2
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard count %d must be >= 1", opts.Shards)
	}
	inj, err := fault.NewInjector(opts.Fault, opts.Seed^0x5bf03635, counters.NewResilienceOn(opts.Metrics))
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:      opts,
		ring:      NewRing(0),
		shards:    make(map[string]*shard, opts.Shards),
		inj:       inj,
		inflightC: make(map[*Job]context.CancelFunc),
		closedCh:  make(chan struct{}),

		mJobs:      opts.Metrics.Counter("cluster.jobs"),
		mFailovers: opts.Metrics.Counter("cluster.failovers"),
	}
	for i := 0; i < opts.Shards; i++ {
		name := fmt.Sprintf("shard%d", i)
		var fr *flight.Recorder
		if opts.Flight {
			fr = flight.New(opts.FlightSlots)
		}
		sh, err := openShard(name, filepath.Join(opts.Dir, name), inj, opts.Metrics, fr)
		if err != nil {
			for _, open := range c.shards {
				open.close()
			}
			return nil, err
		}
		c.shards[name] = sh
		c.ring.Add(name)
	}
	return c, nil
}

// Shards lists the shard names in ring order.
func (c *Cluster) Shards() []string { return c.ring.Nodes() }

// ShardMetrics snapshots each shard's private registry (the primary
// store's instruments), keyed by shard name. Cluster-fabric counters —
// dispatch, WAL shipping, failovers — live on the shared
// registry and are not duplicated here.
func (c *Cluster) ShardMetrics() map[string]obs.Snapshot {
	out := make(map[string]obs.Snapshot, len(c.shards))
	for name, sh := range c.shards {
		out[name] = sh.reg.Snapshot()
	}
	return out
}

// Submit runs one tuning job on the shard owning its key, failing over
// to the shard's follower if the primary is killed mid-job. Jobs on
// the same shard serialize; jobs on different shards run concurrently.
func (c *Cluster) Submit(ctx context.Context, job Job) (Result, error) {
	var res Result
	if job.Key == "" {
		return res, errors.New("cluster: job needs a sharding key")
	}
	if job.Opts.Store != nil {
		return res, errors.New("cluster: job options must not carry a store (shards own theirs)")
	}
	if job.Tenant == "" {
		job.Tenant = "default"
	}
	if ctx == nil {
		ctx = context.Background()
	}

	c.shutMu.Lock()
	if c.shutting {
		c.shutMu.Unlock()
		return res, ErrClusterClosed
	}
	c.wg.Add(1)
	c.shutMu.Unlock()
	defer c.wg.Done()

	owner := c.ring.Owner(job.Key)
	sh := c.shards[owner]
	res.Shard = owner
	c.mJobs.Inc()
	if reg := c.opts.Metrics; reg != nil {
		reg.Counter("cluster." + owner + ".jobs").Inc()
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.mu.Lock()
	c.inflightC[&job] = cancel
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflightC, &job)
		c.mu.Unlock()
	}()

	sh.mu.Lock()
	defer sh.mu.Unlock()

	var sp *obs.Span
	if t := c.opts.Trace; t != nil {
		sp = t.Root(obs.TrackCluster, "job", hashKey(job.Key), 0,
			obs.Str("key", job.Key),
			obs.Str("tenant", job.Tenant),
			obs.Str("shard", owner))
	}

	run, err := core.Tune(jctx, c.shardOptions(sh, job, true))
	if errors.Is(err, ErrShardKilled) {
		if ferr := c.failOver(sh, sp, run.TuningDuration); ferr != nil {
			sp.End(run.TuningDuration)
			return res, ferr
		}
		res.FailedOver = true
		// The promoted store holds the replicated rung checkpoints;
		// the rerun resumes from the last one and converges to the
		// same-seed digest. No kill hook this time: the shard is
		// degraded, another death is not survivable.
		run, err = core.Tune(jctx, c.shardOptions(sh, job, false))
	}
	sp.End(run.TuningDuration, obs.Bool("failedOver", res.FailedOver))
	if err != nil {
		return res, err
	}
	res.Result = run
	return res, nil
}

// shardOptions adapts a job's options to run on sh: the shard's
// durable store, checkpointing forced on (failover depends on it), the
// tenant identity threaded to the node's serving path, and — when
// the shard still has a follower to fail over to — the kill hooks at
// rung boundaries.
func (c *Cluster) shardOptions(sh *shard, job Job, armKills bool) core.Options {
	opts := job.Opts
	opts.Store = sh.primary.Store()
	opts.Checkpoint = true
	opts.Tenant = job.Tenant
	// The shard's recorder, not a per-job one: job options are copied
	// per attempt, so the same ring survives the failover rerun and its
	// dossiers cover both halves of the job.
	opts.Flight = sh.fr
	if opts.Profile {
		// Stamp the owning shard on every pprof label set the job
		// applies, training and serving side alike. Copy-on-append: the
		// job's own slice must survive a failover rerun unchanged.
		opts.ProfLabels = append(append([]string(nil), opts.ProfLabels...),
			prof.KeyShard, sh.name)
	}
	userHook := opts.AfterRung
	if armKills && !sh.degraded {
		rungs := 0
		opts.AfterRung = func(bracket, rung int) error {
			if userHook != nil {
				if err := userHook(bracket, rung); err != nil {
					return err
				}
			}
			rungs++
			if c.opts.KillShardAfterRungs > 0 && rungs == c.opts.KillShardAfterRungs {
				return ErrShardKilled
			}
			site := fmt.Sprintf("%s/%s/b%d/r%d", sh.name, job.Key, bracket, rung)
			if c.inj.Should(fault.ShardKill, site, 0) {
				return ErrShardKilled
			}
			return nil
		}
	} else {
		opts.AfterRung = userHook
	}
	return opts
}

// failOver promotes sh's follower. Callers hold sh.mu.
func (c *Cluster) failOver(sh *shard, sp *obs.Span, at time.Duration) error {
	fsp := sp.Child("failover", at)
	sh.fr.Record(at, flight.KindFailover, sh.name, "kill", 0, 0)
	err := sh.failover()
	if fsp != nil {
		fsp.End(at, obs.Str("shard", sh.name), obs.Bool("ok", err == nil))
	}
	if err != nil {
		return err
	}
	sh.fr.Record(at, flight.KindFailover, sh.name, "promoted", 0, 0)
	sh.fr.Trigger(flight.TriggerFailover, at, sh.name)
	c.mFailovers.Inc()
	return nil
}

// Incidents builds each shard's incident dossiers from its flight
// recorder (nil recorders contribute nothing). The metrics snapshot
// embedded in a shard's dossiers is that shard's private registry —
// the promoted store's instruments included — so the artefact is
// self-contained per shard. Call after the shard's jobs have quiesced;
// the build is non-consuming and repeatable.
func (c *Cluster) Incidents() map[string][]flight.Dossier {
	out := make(map[string][]flight.Dossier)
	for name, sh := range c.shards {
		sh.mu.Lock()
		ds := sh.fr.Dossiers(flight.Sources{Metrics: sh.reg.Snapshot()})
		sh.mu.Unlock()
		if len(ds) > 0 {
			out[name] = ds
		}
	}
	return out
}

// Close shuts the cluster down immediately: in-flight jobs are
// cancelled and every shard's stores are sealed. Idempotent and safe
// to call concurrently. For a graceful stop, use Drain.
func (c *Cluster) Close() error {
	return c.shutdown(context.Background(), true)
}

// Drain stops the cluster gracefully: new submissions fail with
// ErrClusterClosed while in-flight jobs run to completion, then the
// shards' stores are sealed (primaries compact, surviving followers
// are materialized and verified loadable). If ctx expires first, the
// remaining jobs are cancelled; their callers receive context errors.
// Drain returns nil when everything completed within the deadline.
func (c *Cluster) Drain(ctx context.Context) error {
	return c.shutdown(ctx, false)
}

// shutdown stops the cluster once; force skips the grace period and
// cancels in-flight jobs outright (Close), otherwise ctx bounds how
// long the drain waits before doing the same — and only then is the
// context error reported.
func (c *Cluster) shutdown(ctx context.Context, force bool) error {
	c.shutMu.Lock()
	if c.shutting {
		c.shutMu.Unlock()
		<-c.closedCh
		return c.closeErr
	}
	c.shutting = true
	c.shutMu.Unlock()

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	if force {
		c.cancelInflight()
		<-done
	} else {
		select {
		case <-done:
		case <-ctx.Done():
			err = ctx.Err()
			c.cancelInflight()
			<-done // cancelled jobs exit promptly
		}
	}
	for _, name := range c.ring.Nodes() {
		if cerr := c.shards[name].close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.closeErr = err
	close(c.closedCh)
	return err
}

// cancelInflight cancels every job currently running.
func (c *Cluster) cancelInflight() {
	c.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(c.inflightC))
	for _, cancel := range c.inflightC {
		cancels = append(cancels, cancel)
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}
