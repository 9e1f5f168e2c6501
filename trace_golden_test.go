package edgetune

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"edgetune/internal/obs/analyze"
	"edgetune/internal/testutil"
)

// tinyTraceJob is a small traced IC job: enough rungs for epochs and
// mini-batches under every attempt, small enough to run in a second.
func tinyTraceJob() Job {
	return Job{Workload: "IC", Configs: 3, Rungs: 2, Brackets: 1, InferenceTrials: 4, Seed: 5}
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// faultedTraceJob is tinyTraceJob under faults that reach every way a
// traced span can end short of "ok": attempts killed by a fault, a trial
// that exhausts its attempts, a device attempt retried after a flap and
// a reply dropped in flight.
func faultedTraceJob() Job {
	job := tinyTraceJob()
	job.Seed = 2
	job.MaxTrialAttempts = 2
	job.Faults = FaultConfig{TrialCrash: 0.3, DeviceFlap: 0.3, DroppedReply: 0.3}
	return job
}

// TestTraceBytesGolden holds the trace exports of a single-node job, of
// the same job under faults, of a job on a two-shard cluster (whose jobs
// all share one tracer) and of one whose shard is killed mid-job, and
// their Chrome views, to fixed digests: how the tracer buffers spans may
// change, the bytes it exports may not. A digest moves only with a
// change meant to move what is traced, and then in the same change.
func TestTraceBytesGolden(t *testing.T) {
	defer testutil.CheckGoroutineLeak(t, 4)
	const (
		wantJobJSONL      = "8d0eddabc0ca7bab7fdd1886b303e003132f788f14e3ac9455526374493e9f31"
		wantJobChrome     = "f7617255886de9d7bc6dbfcc35d5fffac9f5e922887803b0c0bf16fea1b94973"
		wantClusterJSONL  = "81659092e8c5f4af52294aff9e9f5ed74785a3c9fdea12b78da88319a8600594"
		wantClusterChrome = "d010850429287982f5b7f24fcefb29f040ae666ecfc8bfac1bbb6c4504752591"

		wantFaultedJSONL  = "e4b31ded732dc797a8fed36a2035df94b3eb304e047db154bd7a239890796094"
		wantFaultedChrome = "13adc4a2230c0e22c5846b73b041af2aaa2f9d872c33b3c9cc2b340f0771958c"
		wantKilledJSONL   = "c75a1ca193d5b552650b367e965f8ef7c4bb2bcc18733db55b685866a4b650b4"
		wantKilledChrome  = "29f74490fd485e89e078dd6af9999ee3184ca1e509337b3f153b0be1d6584852"
	)
	dir := t.TempDir()

	data := jobTrace(t, tinyTraceJob(), filepath.Join(dir, "job.jsonl"))
	checkTrace(t, "job", data, wantJobJSONL, wantJobChrome)
	// The digests cover both kinds of leaf span the pipeline emits.
	for _, name := range []string{`"mini-batch"`, `"store-write"`} {
		if !bytes.Contains(data, []byte(name)) {
			t.Errorf("job.jsonl holds no %s span", name)
		}
	}

	data = jobTrace(t, faultedTraceJob(), filepath.Join(dir, "faulted.jsonl"))
	checkTrace(t, "faulted", data, wantFaultedJSONL, wantFaultedChrome)
	for _, path := range []struct{ name, attr string }{
		{`"attempt"`, `{"k":"outcome","v":"fault:`},
		{`"trial"`, `{"k":"outcome","v":"failed"}`},
		{`"device-attempt"`, `{"k":"attempt","v":1}`},
		{`"request"`, `{"k":"outcome","v":"dropped-reply"}`},
	} {
		if !hasSpan(data, path.name, path.attr) {
			t.Errorf("faulted.jsonl holds no %s span with %s", path.name, path.attr)
		}
	}

	data = clusterTrace(t, ClusterOptions{Shards: 2, Dir: filepath.Join(dir, "cluster"), Seed: 5})
	checkTrace(t, "cluster", data, wantClusterJSONL, wantClusterChrome)

	data = clusterTrace(t, ClusterOptions{Shards: 2, Dir: filepath.Join(dir, "killed"), Seed: 5, KillShardAfterRungs: 1})
	checkTrace(t, "killed cluster", data, wantKilledJSONL, wantKilledChrome)
	if !hasSpan(data, `"failover"`, `{"k":"ok","v":true}`) || !hasSpan(data, `"job"`, `{"k":"failedOver","v":true}`) {
		t.Error("the killed cluster's trace holds no failover")
	}
}

// jobTrace runs job traced to path and returns the trace.
func jobTrace(t *testing.T, job Job, path string) []byte {
	t.Helper()
	job.TracePath = path
	if _, err := Tune(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// clusterTrace runs tinyTraceJob on a cluster made with opts, traced,
// and returns the trace.
func clusterTrace(t *testing.T, opts ClusterOptions) []byte {
	t.Helper()
	opts.TracePath = opts.Dir + ".jsonl"
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tune(context.Background(), tinyTraceJob()); err != nil {
		c.Close()
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(opts.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkTrace holds a JSONL trace and its Chrome view to their digests.
func checkTrace(t *testing.T, name string, jsonl []byte, wantJSONL, wantChrome string) {
	t.Helper()
	if got := sha(jsonl); got != wantJSONL {
		t.Errorf("%s JSONL: sha256 %s, want %s", name, got, wantJSONL)
	}
	if got := sha(chrome(t, jsonl)); got != wantChrome {
		t.Errorf("%s Chrome view: sha256 %s, want %s", name, got, wantChrome)
	}
}

// hasSpan reports whether a line of the JSONL trace is a span named name
// (quoted) that holds attr.
func hasSpan(jsonl []byte, name, attr string) bool {
	for _, line := range bytes.Split(jsonl, []byte("\n")) {
		if bytes.Contains(line, []byte(`"name":`+name)) && bytes.Contains(line, []byte(attr)) {
			return true
		}
	}
	return false
}

// chrome is the Chrome view of a JSONL trace.
func chrome(t *testing.T, jsonl []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := analyze.Chrome(&buf, bytes.NewReader(jsonl)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
