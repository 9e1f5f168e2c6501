package edgetune

import (
	"context"
	"errors"
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

func TestClusterRejectsStoreJobsAndEnforcesQuota(t *testing.T) {
	defer testutil.CheckGoroutineLeak(t, 4)

	c, err := NewCluster(ClusterOptions{
		Shards:      2,
		Dir:         t.TempDir(),
		TenantRate:  0.25,
		TenantBurst: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := clusterJob("acme")
	bad.StorePath = "somewhere/store.json"
	if _, err := c.Tune(context.Background(), bad); err == nil {
		t.Error("StorePath job accepted; want rejection")
	}

	if _, err := c.Tune(context.Background(), clusterJob("acme")); err != nil {
		t.Fatalf("first job within burst: %v", err)
	}
	_, err = c.Tune(context.Background(), clusterJob("acme"))
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("second job = %v, want ErrTenantQuota", err)
	}
	var obj *SLOObjective
	rep := c.SLO()
	for i := range rep.Objectives {
		if rep.Objectives[i].Name == "cluster/tenant-admission" {
			obj = &rep.Objectives[i]
		}
	}
	if obj == nil {
		t.Fatalf("missing cluster/tenant-admission objective: %+v", rep.Objectives)
	}
	if obj.Errors != 1 {
		t.Errorf("tenant-admission errors = %d, want 1", obj.Errors)
	}
}
