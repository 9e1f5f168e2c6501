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
	"testing"

	"edgetune/internal/testutil"
)

var updateReach = flag.Bool("update-reach", false, "rewrite testdata/product_reach.golden")

// TestProductReach is the census of what the product's own jobs reach
// on the serving path: every request ending, admission verdict and hedge
// in each job's trace, every nonzero resilience counter and the deepest
// autoscale rung in its report. The four jobs are the ones a user runs
// from the CLI — the default IC job, the chaos preset single-node and
// failed over on a two-shard cluster, and a flash crowd that drives the
// degradation ladder to its last rung. The golden lists nonzero tallies
// only, so a serving mechanism no product job exercises appears nowhere
// in it, and a change that deletes such a mechanism leaves it byte for
// byte as it was.
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
	flashCrowd := Job{Workload: "IC", Seed: 7, Autoscale: true, AutoscaleMax: 3}
	flashCrowd.Faults.FlashCrowd = 0.1

	jobs := []struct {
		name, digest string
		run          func(trace string) (*Report, error)
	}{
		{"ic-seed5", "3719ca5effa1a2d2", func(trace string) (*Report, error) {
			return tuneTraced(Job{Workload: "IC", Seed: 5}, trace)
		}},
		{"chaos-seed42", "9d9e45378ffeb3eb", func(trace string) (*Report, error) {
			return tuneTraced(chaos(), trace)
		}},
		{"chaos-seed42-cluster2-kill2", "9d9e45378ffeb3eb", func(trace string) (*Report, error) {
			c, err := NewCluster(ClusterOptions{
				Shards: 2, Dir: filepath.Join(filepath.Dir(trace), "cluster"), Seed: 42,
				KillShardAfterRungs: 2, TracePath: trace,
			})
			if err != nil {
				return nil, err
			}
			rep, err := c.Tune(context.Background(), chaos())
			if cerr := c.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			if !rep.FailedOver {
				return nil, fmt.Errorf("the scripted shard kill did not fail the job over")
			}
			return rep.Report, nil
		}},
		{"autoscale-flash-crowd-seed7", "9d2158a1827686e6", func(trace string) (*Report, error) {
			return tuneTraced(flashCrowd, trace)
		}},
	}

	var got bytes.Buffer
	for _, j := range jobs {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		rep, err := j.run(trace)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if d := rep.Digest(); d != j.digest {
			t.Errorf("%s: digest %s, want %s", j.name, d, j.digest)
		}
		tally, err := reachTally(trace, rep)
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

func tuneTraced(job Job, trace string) (*Report, error) {
	job.TracePath = trace
	return Tune(context.Background(), job)
}

// reachTally renders one job's nonzero tallies, one sorted line each.
func reachTally(trace string, rep *Report) (string, error) {
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
			case sp.Name == "request" && a.K == "hedged" && a.V == true:
				counts["request hedged"]++
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

	var lines []string
	for k, n := range counts {
		if n != 0 {
			lines = append(lines, fmt.Sprintf("  %s %d\n", k, n))
		}
	}
	if a := rep.Autoscale; a != nil {
		lines = append(lines, fmt.Sprintf("  autoscale deepest %s\n", a.DeepestMode))
	}
	sort.Strings(lines)
	var b bytes.Buffer
	for _, l := range lines {
		b.WriteString(l)
	}
	return b.String(), nil
}
