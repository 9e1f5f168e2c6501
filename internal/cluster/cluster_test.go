package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgetune/internal/autoscale"
	"edgetune/internal/core"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

// jobOpts builds a fresh small job; every run needs its own workload
// instance (it carries mutable sampler state).
func jobOpts() core.Options {
	return core.Options{
		Workload:       workload.MustNew("IC", 1),
		SystemParams:   true,
		InferenceAware: true,
		InitialConfigs: 4,
		Rungs:          4,
		MaxBrackets:    2,
		InferTrials:    8,
		Seed:           7,
	}
}

// digest reduces a result to the fields the convergence contract
// covers: the winning configuration and the inference recommendation.
type digest struct {
	BestConfig   map[string]float64
	BestAccuracy float64
	BestScore    float64
	Rec          store.Entry
}

func digestOf(res core.Result) digest {
	return digest{
		BestConfig:   res.BestConfig.Clone(),
		BestAccuracy: res.BestAccuracy,
		BestScore:    res.BestScore,
		Rec:          res.Recommendation,
	}
}

func newTestCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterFailoverConvergence is the tentpole proof: a shard killed
// mid-bracket fails over to its WAL-shipped follower, resumes from the
// replicated rung checkpoint, and the job converges to the same
// recommendation digest as an uninterrupted unsharded same-seed run.
func TestClusterFailoverConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos suite skipped in -short mode")
	}
	testutil.CheckGoroutineLeak(t, 4)

	clean, err := core.Tune(context.Background(), jobOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(clean)

	reg := obs.NewRegistry()
	c := newTestCluster(t, Options{
		Shards:              2,
		Seed:                11,
		KillShardAfterRungs: 2,
		Metrics:             reg,
	})
	res, err := c.Submit(context.Background(), Job{Key: "acme/IC", Opts: jobOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("shard was not killed — the chaos hook never fired")
	}
	if got := reg.Counter("cluster.failovers").Value(); got != 1 {
		t.Errorf("failovers counter = %d, want 1", got)
	}
	if got := digestOf(res.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("failed-over digest diverged from unsharded run:\n got %+v\nwant %+v", got, want)
	}

	// A second same-seed submission lands on the now-degraded shard: no
	// follower is left, so the kill hook stands down and the job resumes
	// from the completed checkpoint to the same digest.
	res2, err := c.Submit(context.Background(), Job{Key: "acme/IC", Opts: jobOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if res2.FailedOver {
		t.Error("degraded shard failed over a second time")
	}
	if res2.Shard != res.Shard {
		t.Errorf("same key routed to %s after %s", res2.Shard, res.Shard)
	}
	if got := digestOf(res2.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed digest diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestClusterAutoscaleSurvivesFailover: a job tuned with the
// autoscaler enabled and flash crowds injected is killed mid-bracket;
// the promoted follower rebuilds its own controller, the job still
// converges to the unsharded recommendation digest, and the autoscale
// report is surfaced on the result.
func TestClusterAutoscaleSurvivesFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos suite skipped in -short mode")
	}
	testutil.CheckGoroutineLeak(t, 4)

	withAutoscale := func() core.Options {
		opts := jobOpts()
		opts.Autoscale = &autoscale.Config{}
		opts.Fault = fault.Config{FlashCrowd: 0.3}
		return opts
	}
	clean, err := core.Tune(context.Background(), withAutoscale())
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(clean)

	c := newTestCluster(t, Options{
		Shards:              2,
		Seed:                11,
		KillShardAfterRungs: 2,
	})
	res, err := c.Submit(context.Background(), Job{Key: "acme/IC", Opts: withAutoscale()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("shard was not killed — the chaos hook never fired")
	}
	rep := res.Result.Autoscale
	if rep == nil {
		t.Fatal("autoscale report missing after failover")
	}
	if rep.ScaleUps == 0 {
		t.Error("flash crowds never drove a scale-up on the promoted shard")
	}
	if got := digestOf(res.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("failed-over autoscaled digest diverged from unsharded run:\n got %+v\nwant %+v", got, want)
	}
}

// TestClusterConvergesUnderPartitionAndLag: dropped and lagged WAL
// frames on the replication link only cost the follower recency — the
// failed-over job still reaches the unsharded digest, resuming from
// whatever rung checkpoint survived shipping.
func TestClusterConvergesUnderPartitionAndLag(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos suite skipped in -short mode")
	}
	testutil.CheckGoroutineLeak(t, 4)

	clean, err := core.Tune(context.Background(), jobOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(clean)

	reg := obs.NewRegistry()
	c := newTestCluster(t, Options{
		Shards:              2,
		Seed:                13,
		KillShardAfterRungs: 2,
		Fault:               fault.Config{NetPartition: 0.25, FollowerLag: 0.25},
		Metrics:             reg,
	})
	res, err := c.Submit(context.Background(), Job{Key: "acme/IC", Opts: jobOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("shard was not killed")
	}
	if got := digestOf(res.Result); !reflect.DeepEqual(got, want) {
		t.Errorf("lossy-replication digest diverged:\n got %+v\nwant %+v", got, want)
	}
	dropped := reg.Counter("cluster.ship.dropped").Value()
	lagged := reg.Counter("cluster.ship.lagged").Value()
	if dropped == 0 && lagged == 0 {
		t.Error("no partition/lag faults fired at 25% rates — sites or probabilities are wired wrong")
	}
	t.Logf("shipped=%d dropped=%d lagged=%d",
		reg.Counter("cluster.ship.shipped").Value(), dropped, lagged)
}

// TestClusterStoresVerifyAfterFailover: after a failover run and a
// Close, every node directory — promoted follower, abandoned primary,
// and the untouched second shard — must scrub clean.
func TestClusterStoresVerifyAfterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos suite skipped in -short mode")
	}
	testutil.CheckGoroutineLeak(t, 4)

	dir := t.TempDir()
	c := newTestCluster(t, Options{Shards: 2, Dir: dir, Seed: 11, KillShardAfterRungs: 2})
	res, err := c.Submit(context.Background(), Job{Key: "acme/IC", Opts: jobOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FailedOver {
		t.Fatal("shard was not killed")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	checked := 0
	for _, sub := range []string{"primary", "follower"} {
		for i := 0; i < 2; i++ {
			snap := filepath.Join(dir, fmt.Sprintf("shard%d", i), sub, "store.json")
			if _, serr := os.Stat(snap); os.IsNotExist(serr) {
				if _, werr := os.Stat(snap + ".wal"); os.IsNotExist(werr) {
					continue // node never wrote anything
				}
			}
			rep, err := store.Scrub(nil, snap, "")
			if err != nil {
				t.Fatalf("scrub %s: %v", snap, err)
			}
			if !rep.Clean {
				t.Errorf("%s not clean: %+v", snap, rep)
			}
			checked++
		}
	}
	if checked < 2 {
		t.Errorf("only %d store directories had data", checked)
	}
}

// TestClusterTenantQuota: the dispatcher's per-tenant token bucket
// rejects a bursting tenant with ErrTenantQuota (wrapping the serving
// layer's ErrOverloaded), counts the rejection per tenant, and leaves
// other tenants unaffected.
func TestClusterTenantQuota(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 4)
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	c := newTestCluster(t, Options{
		Shards:      2,
		TenantRate:  0.25,
		TenantBurst: 2,
		Metrics:     reg,
		SLO:         ev,
	})

	rejected := 0
	for i := 0; i < 6; i++ {
		_, err := c.Query("alice", fmt.Sprintf("IC/layers=%d", 18+i), "i7")
		switch {
		case errors.Is(err, ErrTenantQuota):
			if !errors.Is(err, core.ErrOverloaded) {
				t.Fatal("ErrTenantQuota does not wrap core.ErrOverloaded")
			}
			rejected++
		case err != nil && !errors.Is(err, store.ErrNotFound):
			t.Fatalf("unexpected query error: %v", err)
		}
	}
	if rejected == 0 {
		t.Error("six queries at rate 0.25 / burst 2 never hit the quota")
	}
	if got := reg.Counter("cluster.tenant.rejected.alice").Value(); got != int64(rejected) {
		t.Errorf("alice's rejection counter = %d, want %d", got, rejected)
	}
	// A fresh tenant starts with a full bucket regardless of alice's.
	if _, err := c.Query("bob", "IC/layers=18", "i7"); errors.Is(err, ErrTenantQuota) {
		t.Error("bob rejected though his bucket was untouched")
	}
	if got := reg.Counter("cluster.tenant.rejected.bob").Value(); got != 0 {
		t.Errorf("bob's rejection counter = %d, want 0", got)
	}

	snap := ev.Snapshot()
	found := false
	for _, o := range snap.Objectives {
		if o.Name == "cluster/tenant-admission" {
			found = true
			if o.Errors != int64(rejected) {
				t.Errorf("admission SLO errors = %d, want %d", o.Errors, rejected)
			}
		}
	}
	if !found {
		t.Error("cluster/tenant-admission objective not registered")
	}
}

// TestClusterQuotaRejectsSubmissions: the gate guards the tuning path
// too, before any shard work starts.
func TestClusterQuotaRejectsSubmissions(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 4)
	c := newTestCluster(t, Options{Shards: 1, TenantRate: 0.01, TenantBurst: 1})
	if _, err := c.Query("alice", "IC/layers=18", "i7"); errors.Is(err, ErrTenantQuota) {
		t.Fatal("first query burned no burst")
	}
	_, err := c.Submit(context.Background(), Job{Key: "k", Tenant: "alice", Opts: jobOpts()})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("submission after burst: err = %v, want ErrTenantQuota", err)
	}
}

// TestClusterRoutesAndRunsConcurrently: keys owned by different shards
// tune in parallel, each deterministic against its own unsharded run.
func TestClusterRoutesAndRunsConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos suite skipped in -short mode")
	}
	testutil.CheckGoroutineLeak(t, 4)
	c := newTestCluster(t, Options{Shards: 4})

	// Find two keys on different shards (the ring is deterministic, so
	// this probe is too).
	keyA := "tenantA/jobA"
	keyB := ""
	for i := 0; i < 64 && keyB == ""; i++ {
		k := fmt.Sprintf("tenantB/job%d", i)
		if c.Owner(k) != c.Owner(keyA) {
			keyB = k
		}
	}
	if keyB == "" {
		t.Fatal("could not find a key on another shard")
	}

	var wg sync.WaitGroup
	results := make([]Result, 2)
	errs := make([]error, 2)
	for i, key := range []string{keyA, keyB} {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			results[i], errs[i] = c.Submit(context.Background(), Job{Key: key, Opts: jobOpts()})
		}(i, key)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if results[0].Shard == results[1].Shard {
		t.Errorf("both jobs ran on %s despite distinct ring owners", results[0].Shard)
	}
	clean, err := core.Tune(context.Background(), jobOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := digestOf(clean)
	for i := range results {
		if got := digestOf(results[i].Result); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d digest diverged from unsharded run", i)
		}
	}
}

// TestClusterCloseIdempotent mirrors the PR 2 serving contract: Close
// twice returns the same error, and submissions and queries after it
// fail with ErrClusterClosed.
func TestClusterCloseIdempotent(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 4)
	c := newTestCluster(t, Options{Shards: 2})
	err1 := c.Close()
	err2 := c.Close()
	if err1 != nil || err2 != nil {
		t.Fatalf("idle close errs: %v, %v", err1, err2)
	}
	if _, err := c.Submit(context.Background(), Job{Key: "k", Opts: jobOpts()}); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("submit after close: %v, want ErrClusterClosed", err)
	}
	if _, err := c.Query("t", "sig", "i7"); !errors.Is(err, ErrClusterClosed) {
		t.Errorf("query after close: %v, want ErrClusterClosed", err)
	}
}

// TestClusterDrainGraceful: with nothing in flight Drain returns nil
// promptly and seals every store.
func TestClusterDrainGraceful(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 4)
	c := newTestCluster(t, Options{Shards: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

// TestClusterDrainDeadline: an expired drain deadline cancels in-flight
// jobs (their submitters get context errors) instead of hanging.
func TestClusterDrainDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos suite skipped in -short mode")
	}
	testutil.CheckGoroutineLeak(t, 4)
	c := newTestCluster(t, Options{Shards: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	opts := jobOpts()
	opts.AfterRung = func(bracket, rung int) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}

	subErr := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), Job{Key: "k", Opts: opts})
		subErr <- err
	}()
	<-entered

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		drainErr <- c.Drain(ctx)
	}()
	// The drain's deadline has to expire while the job is wedged in the
	// rung hook; only then release it so the cancelled context can take
	// effect.
	time.Sleep(150 * time.Millisecond)
	close(release)

	if err := <-drainErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain err = %v, want DeadlineExceeded", err)
	}
	if err := <-subErr; !errors.Is(err, context.Canceled) {
		t.Errorf("wedged job err = %v, want Canceled", err)
	}
}

// TestClusterDrainExpiredContext: a Drain whose context expired before
// the call skips the grace period entirely — in-flight jobs are
// cancelled, their submitters get typed errors, and Close stays
// idempotent (repeating the drain's verdict) afterwards.
func TestClusterDrainExpiredContext(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 4)
	c := newTestCluster(t, Options{Shards: 1})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	opts := jobOpts()
	opts.AfterRung = func(bracket, rung int) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}

	subErr := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), Job{Key: "k", Opts: opts})
		subErr <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the drain even starts
	drainErr := make(chan error, 1)
	go func() {
		drainErr <- c.Drain(ctx)
	}()
	// The expired context cancels the wedged job immediately; release
	// the rung hook so the cancellation can take effect.
	time.Sleep(100 * time.Millisecond)
	close(release)

	if err := <-drainErr; !errors.Is(err, context.Canceled) {
		t.Errorf("expired drain err = %v, want context.Canceled", err)
	}
	if err := <-subErr; !errors.Is(err, context.Canceled) {
		t.Errorf("wedged job err = %v, want Canceled", err)
	}
	err1 := c.Close()
	err2 := c.Close()
	if !errors.Is(err1, context.Canceled) || !errors.Is(err2, context.Canceled) {
		t.Errorf("close after expired drain = %v, %v, want the drain's verdict both times", err1, err2)
	}
}
