package edgetune

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

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

// TestTraceBytesGolden holds the trace exports of a single-node job and
// of a job on a two-shard cluster (whose jobs all share one tracer) to
// fixed digests: how the tracer buffers spans may change, the bytes it
// exports may not. A digest moves only with a change meant to move what
// is traced, and then in the same change.
func TestTraceBytesGolden(t *testing.T) {
	defer testutil.CheckGoroutineLeak(t, 4)
	const (
		wantJobJSONL      = "eaf9dc5f5509a74afb215ae367d99637db73a20b54ae45dc465d1778054b7611"
		wantJobChrome     = "876271b50de05e4537df7d86f7fccd15c8b3df599fcaf13c56b14ee272d10d5c"
		wantClusterJSONL  = "1ca5398262e47cebe519408b14e09b62ddc69a9f07c0920d1ef2d0f73a16df1f"
		wantClusterChrome = "b2d84669488df6fb73cdd58619ab73b0f0de781a02c683bbd85ef20459a391ae"
	)
	dir := t.TempDir()

	job := tinyTraceJob()
	job.TracePath = filepath.Join(dir, "job.jsonl")
	job.TraceChromePath = filepath.Join(dir, "job.chrome.json")
	if _, err := Tune(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct{ path, want string }{
		{job.TracePath, wantJobJSONL},
		{job.TraceChromePath, wantJobChrome},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(data); got != f.want {
			t.Errorf("%s: sha256 %s, want %s", filepath.Base(f.path), got, f.want)
		}
		// The digests cover both kinds of leaf span the pipeline emits.
		for _, name := range []string{`"mini-batch"`, `"store-write"`} {
			if !bytes.Contains(data, []byte(name)) {
				t.Errorf("%s holds no %s span", filepath.Base(f.path), name)
			}
		}
	}

	c, err := NewCluster(ClusterOptions{
		Shards:    2,
		Dir:       filepath.Join(dir, "cluster"),
		Seed:      5,
		TracePath: filepath.Join(dir, "cluster.jsonl"),
	})
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
	data, err := os.ReadFile(filepath.Join(dir, "cluster.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != wantClusterJSONL {
		t.Errorf("cluster.jsonl: sha256 %s, want %s", got, wantClusterJSONL)
	}
	var chrome bytes.Buffer
	if err := c.tracer.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if got := sha(chrome.Bytes()); got != wantClusterChrome {
		t.Errorf("cluster Chrome export: sha256 %s, want %s", got, wantClusterChrome)
	}
}
