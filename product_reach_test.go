package edgetune

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"edgetune/internal/testutil"
)

var updateReach = flag.Bool("update-reach", false, "rewrite testdata/product_reach.golden")

// TestProductReach is the census of what the product's own jobs reach
// on the serving path: every request ending and admission verdict in
// each job's trace, every nonzero resilience counter, every pool
// device's nonzero request count, and — for the cluster job — every
// nonzero counter of the dispatcher registry (Cluster.Metrics). The
// jobs are the ones a user runs from the CLI — the default IC job, the
// chaos preset single-node and failed over on a two-shard cluster, and
// the serving-path device faults (flap and brown-out). The golden lists
// nonzero tallies only, so a serving mechanism no product job exercises
// appears nowhere in it, and a change that deletes such a mechanism
// leaves it byte for byte as it was.
func TestProductReach(t *testing.T) {
	defer testutil.CheckGoroutineLeak(t, 4)
	data, err := os.ReadFile("examples/chaos/job.json")
	if err != nil {
		t.Fatal(err)
	}
	chaos := func() Job {
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatal(err)
		}
		j.Seed = 42
		return j
	}
	flapBrownout := Job{Workload: "IC", Seed: 7}
	flapBrownout.Faults.DeviceFlap = 0.3
	flapBrownout.Faults.DeviceBrownout = 0.5

	jobs := []struct {
		name, digest string
		// run returns the job's report and, for a cluster job, the
		// dispatcher registry's snapshot.
		run func(trace string) (*Report, MetricsReport, error)
	}{
		{"ic-seed5", "3719ca5effa1a2d2", tuneTraced(Job{Workload: "IC", Seed: 5})},
		{"chaos-seed42", "9d9e45378ffeb3eb", tuneTraced(chaos())},
		{"chaos-seed42-cluster2-kill2", "9d9e45378ffeb3eb", func(trace string) (*Report, MetricsReport, error) {
			c, err := NewCluster(ClusterOptions{
				Shards: 2, Dir: filepath.Join(filepath.Dir(trace), "cluster"), Seed: 42,
				KillShardAfterRungs: 2, TracePath: trace,
			})
			if err != nil {
				return nil, MetricsReport{}, err
			}
			rep, err := c.Tune(context.Background(), chaos())
			if cerr := c.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, MetricsReport{}, err
			}
			if !rep.FailedOver {
				return nil, MetricsReport{}, fmt.Errorf("the scripted shard kill did not fail the job over")
			}
			return rep.Report, c.Metrics(), nil
		}},
		{"flap-brownout-seed7", "9d2158a1827686e6", tuneTraced(flapBrownout)},
	}

	var got bytes.Buffer
	for _, j := range jobs {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		rep, dispatcher, err := j.run(trace)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if d := rep.Digest(); d != j.digest {
			t.Errorf("%s: digest %s, want %s", j.name, d, j.digest)
		}
		tally, err := reachTally(trace, rep, dispatcher)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		fmt.Fprintf(&got, "%s\n%s", j.name, tally)
	}

	path := filepath.Join("testdata", "product_reach.golden")
	if *updateReach {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("product reach differs from %s (rerun with -update-reach only when what the product reaches is meant to move):\n%s", path, got.Bytes())
	}
}

// tuneTraced runs job single-node with its trace written to the path
// the census hands it; a single-node job has no dispatcher registry.
func tuneTraced(job Job) func(trace string) (*Report, MetricsReport, error) {
	return func(trace string) (*Report, MetricsReport, error) {
		job.TracePath = trace
		rep, err := Tune(context.Background(), job)
		return rep, MetricsReport{}, err
	}
}

// reachTally renders one job's nonzero tallies, one sorted line each.
func reachTally(trace string, rep *Report, dispatcher MetricsReport) (string, error) {
	counts := map[string]int64{}
	f, err := os.Open(trace)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var sp struct {
			Name  string
			Attrs []struct {
				K string
				V any
			}
		}
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			return "", err
		}
		for _, a := range sp.Attrs {
			switch {
			case sp.Name == "request" && a.K == "outcome":
				counts[fmt.Sprintf("request outcome %v", a.V)]++
			case sp.Name == "admission" && a.K == "verdict":
				counts[fmt.Sprintf("admission verdict %v", a.V)]++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}

	// The resilience counters through their JSON encoding, so the tally
	// names every counter the snapshot carries without listing them.
	raw, err := json.Marshal(rep.Resilience)
	if err != nil {
		return "", err
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(raw, &res); err != nil {
		return "", err
	}
	for k, v := range res {
		var n int64
		if json.Unmarshal(v, &n) == nil { // every key but the faults list, tallied below
			counts["resilience "+k] = n
		}
	}
	for _, fc := range rep.Resilience.Faults {
		counts["resilience fault."+fc.Class] = fc.Count
	}
	for _, c := range dispatcher.Counters {
		counts["dispatcher "+c.Name] = c.Value
	}
	for _, c := range rep.Metrics.Counters {
		if strings.HasPrefix(c.Name, "serving.device.") && strings.HasSuffix(c.Name, ".requests") {
			counts[c.Name] = c.Value
		}
	}

	var lines []string
	for k, n := range counts {
		if n != 0 {
			lines = append(lines, fmt.Sprintf("  %s %d\n", k, n))
		}
	}
	sort.Strings(lines)
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
	}
	return b.String(), nil
}
