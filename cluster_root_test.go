package edgetune

import (
	"context"
	"reflect"
	"testing"

	"edgetune/internal/testutil"
)

func clusterJob(tenant string) Job {
	j := quickJob()
	j.Tenant = tenant
	return j
}

func TestClusterTuneMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster convergence is slow")
	}
	defer testutil.CheckGoroutineLeak(t, 4)

	clean, err := Tune(context.Background(), clusterJob("acme"))
	if err != nil {
		t.Fatal(err)
	}

	c, err := NewCluster(ClusterOptions{
		Shards:              2,
		Dir:                 t.TempDir(),
		Seed:                11,
		KillShardAfterRungs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := c.Tune(context.Background(), clusterJob("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FailedOver {
		t.Error("expected the scripted shard kill to force a failover")
	}
	if rep.Shard == "" {
		t.Error("report lacks its shard")
	}
	if got, want := rep.Digest(), clean.Digest(); got != want {
		t.Errorf("failed-over cluster digest %s != single-node digest %s", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	m := c.Metrics()
	if got := m.Counter("cluster.failovers"); got != 1 {
		t.Errorf("cluster.failovers = %d, want 1", got)
	}
	// Metrics is the dispatcher registry's own snapshot — the same
	// cluster.failovers and every other instrument — not a copy that
	// could drop or rename one.
	if reg := c.reg.Snapshot(); !reflect.DeepEqual(m, reg) {
		t.Errorf("Cluster.Metrics() = %+v, dispatcher registry snapshot = %+v", m, reg)
	}
}

// TestClusterRejectsStoreJobs: a job that brings its own store is
// refused, and the dispatcher admits every other job — a second
// back-to-back job from the same tenant runs like the first.
func TestClusterRejectsStoreJobs(t *testing.T) {
	defer testutil.CheckGoroutineLeak(t, 4)

	c, err := NewCluster(ClusterOptions{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := clusterJob("acme")
	bad.StorePath = "somewhere/store.json"
	if _, err := c.Tune(context.Background(), bad); err == nil {
		t.Error("StorePath job accepted; want rejection")
	}

	for i := 1; i <= 2; i++ {
		if _, err := c.Tune(context.Background(), clusterJob("acme")); err != nil {
			t.Fatalf("job %d from the same tenant: %v", i, err)
		}
	}
	if got := c.Metrics().Counter("cluster.jobs"); got != 2 {
		t.Errorf("cluster.jobs = %d, want 2", got)
	}
}
