package edgetune

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"edgetune/internal/hotloop"
	"edgetune/internal/obs/prof"
	"edgetune/internal/testutil"
)

// TestProfileReport: a Profile-enabled job reports per-stage alloc
// probes, mirrors them as prof.* gauges in the metrics snapshot, and
// leaves probe-free jobs untouched.
func TestProfileReport(t *testing.T) {
	job := quickJob()
	job.Profile = true
	rep, err := Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profile) < 4 {
		t.Fatalf("Report.Profile has %d probes, want at least 4: %+v", len(rep.Profile), rep.Profile)
	}
	stages := map[string]bool{}
	for _, p := range rep.Profile {
		stages[p.Stage] = true
		if p.Runs <= 0 {
			t.Errorf("probe %q has Runs=%d", p.Stage, p.Runs)
		}
		if p.AllocsPerOp < 0 || p.BytesPerOp < 0 {
			t.Errorf("probe %q has negative averages: %+v", p.Stage, p)
		}
	}
	for _, want := range []string{"nn.minibatch-step", "perfmodel.infer-cost", "trace.emit", "store.put"} {
		if !stages[want] {
			t.Errorf("Report.Profile missing stage %q (have %v)", want, stages)
		}
	}
	var order []string
	for _, p := range rep.Profile {
		order = append(order, p.Stage)
	}
	if want := hotloop.JobStages(); !reflect.DeepEqual(order, want) {
		t.Errorf("Report.Profile lists %v, want the table's -profile stages %v", order, want)
	}
	gauges := 0
	for _, g := range rep.Metrics.Gauges {
		if strings.HasPrefix(g.Name, "prof.allocs-per-op.") {
			gauges++
		}
	}
	if gauges != len(rep.Profile) {
		t.Errorf("metrics snapshot has %d prof.allocs-per-op gauges, want %d", gauges, len(rep.Profile))
	}

	off, err := Tune(context.Background(), quickJob())
	if err != nil {
		t.Fatal(err)
	}
	if off.Profile != nil {
		t.Errorf("Profile off must report no probes, got %+v", off.Profile)
	}
	for _, g := range off.Metrics.Gauges {
		if strings.HasPrefix(g.Name, "prof.") {
			t.Errorf("Profile off must publish no prof gauges, got %s", g.Name)
		}
	}
}

// TestClusterShardMetricsAndMergedProm: the cluster exposes per-shard
// store instruments via ShardMetrics and serves a merged Prometheus
// exposition where shard series carry a shard label next to the
// unlabeled dispatcher series.
func TestClusterShardMetricsAndMergedProm(t *testing.T) {
	defer testutil.CheckGoroutineLeak(t, 4)

	c, err := NewCluster(ClusterOptions{
		Shards:    2,
		Dir:       t.TempDir(),
		Seed:      11,
		DebugAddr: "localhost:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	job := clusterJob("acme")
	job.Profile = true
	rep, err := c.Tune(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Profile) == 0 {
		t.Error("cluster job with Profile must report probes")
	}

	shards := c.ShardMetrics()
	if len(shards) != 2 {
		t.Fatalf("ShardMetrics has %d shards, want 2", len(shards))
	}
	var storeWrites int64
	for _, m := range shards {
		storeWrites += m.Counter("store.wal.appends")
	}
	if storeWrites == 0 {
		t.Error("no store.wal.appends counter on any shard registry")
	}

	resp, err := http.Get("http://" + c.DebugAddr() + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if !strings.Contains(out, `store_wal_appends{shard="shard0"}`) &&
		!strings.Contains(out, `store_wal_appends{shard="shard1"}`) {
		t.Errorf("merged exposition lacks shard-labeled store series:\n%.2000s", out)
	}
	if !strings.Contains(out, "cluster_jobs 1") {
		t.Errorf("merged exposition lacks the unlabeled dispatcher series:\n%.2000s", out)
	}
	if n := strings.Count(out, "# TYPE store_wal_appends counter"); n != 1 {
		t.Errorf("store_wal_appends TYPE header appears %d times, want 1", n)
	}

	// Beside it, /analyze over the spans a set DebugAddr made it trace,
	// as a single-node job's server mounts it. The cluster has no
	// objectives of its own (each job's are in its report), so no /slo.
	for path, want := range map[string]struct {
		status int
		body   string
	}{
		"/slo":     {http.StatusNotFound, ""},
		"/analyze": {http.StatusOK, "critical paths"},
	} {
		resp, err := http.Get("http://" + c.DebugAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want.status || !strings.Contains(string(body), want.body) {
			t.Errorf("GET %s = %d, want %d naming %q:\n%.1000s", path, resp.StatusCode, want.status, want.body, body)
		}
	}
}

// TestTrainingSamplesCarryRungLabels: with Profile on, the CPU samples
// taken inside a mini-batch step carry the label of the rung the step
// belongs to whichever goroutine ran it — the tuner's own, labelled by
// runRung, or a helper, which wears the labels of the task it trains. A
// helper is started by the tuner's goroutine and inherits the labels of
// the rung open at that moment, which is the wrong rung for a tail task:
// with three helpers the tail rungs must still hold the share of the
// training samples they hold with none.
func TestTrainingSamplesCarryRungLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles two default jobs")
	}
	defer testutil.CheckGoroutineLeak(t, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shares := map[int]map[string]float64{}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("CPU profiling unavailable: %v", err)
		}
		_, err := Tune(context.Background(), Job{Workload: "IC", Seed: 3, Profile: true})
		pprof.StopCPUProfile()
		if err != nil {
			t.Fatal(err)
		}
		counts, err := prof.LabelValues(buf.Bytes(), "nn.(*Network).TrainStep", prof.KeyRung)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, n := range counts {
			total += n
		}
		t.Logf("GOMAXPROCS %d: %d samples inside TrainStep, by rung label: %v", procs, total, counts)
		if total < 50 {
			t.Skipf("only %d samples landed in TrainStep: too few to judge", total)
		}
		// The set-up probe's own handful of steps is the only training
		// nobody labels.
		if unlabelled := counts[""]; float64(unlabelled) > 0.03*float64(total) {
			t.Errorf("GOMAXPROCS %d: %d of %d training samples carry no %s label", procs, unlabelled, total, prof.KeyRung)
		}
		shares[procs] = map[string]float64{}
		for rung, n := range counts {
			shares[procs][rung] = float64(n) / float64(total)
		}
	}
	for _, rung := range []string{"5", "6", "7"} { // helpers' work: the back of the tail
		if seq, par := shares[1][rung], shares[4][rung]; par < seq/2 {
			t.Errorf("rung %s holds %.0f%% of the training samples with three helpers and %.0f%% with none: its helpers wear another rung's labels", rung, 100*par, 100*seq)
		}
	}
}
