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

// TestTraceBytesGolden holds the trace exports of a single-node job and
// of a job on a two-shard cluster (whose jobs all share one tracer), and
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
	)
	dir := t.TempDir()

	job := tinyTraceJob()
	job.TracePath = filepath.Join(dir, "job.jsonl")
	if _, err := Tune(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(job.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		data []byte
		want string
	}{
		{"job.jsonl", data, wantJobJSONL},
		{"job Chrome view", chrome(t, data), wantJobChrome},
	} {
		if got := sha(f.data); got != f.want {
			t.Errorf("%s: sha256 %s, want %s", f.name, got, f.want)
		}
		// The digests cover both kinds of leaf span the pipeline emits.
		for _, name := range []string{`"mini-batch"`, `"store-write"`} {
			if !bytes.Contains(f.data, []byte(name)) {
				t.Errorf("%s holds no %s span", f.name, name)
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
	data, err = os.ReadFile(filepath.Join(dir, "cluster.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != wantClusterJSONL {
		t.Errorf("cluster.jsonl: sha256 %s, want %s", got, wantClusterJSONL)
	}
	if got := sha(chrome(t, data)); got != wantClusterChrome {
		t.Errorf("cluster Chrome view: sha256 %s, want %s", got, wantClusterChrome)
	}
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
