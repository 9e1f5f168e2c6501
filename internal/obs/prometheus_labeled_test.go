package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestWritePrometheusEmptyHistogramEmitsSumCount(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("serve.latency-ms", []float64{1, 10}) // registered, never observed
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"serve_latency_ms_sum 0\n",
		"serve_latency_ms_count 0\n",
		`serve_latency_ms_bucket{le="1"} 0`,
		`serve_latency_ms_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// le values must be plain quoted strings, not re-quoted by %q.
	if strings.Contains(out, `le="\"`) {
		t.Errorf("le label value double-escaped:\n%s", out)
	}
}

func TestWritePrometheusEmptyHistogramOverHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("tune.rung-ms", []float64{5})
	d, err := StartDebugServerOpts("localhost:0", DebugOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	if !strings.Contains(out, "tune_rung_ms_sum 0\n") || !strings.Contains(out, "tune_rung_ms_count 0\n") {
		t.Errorf("/metrics/prom gapped an empty histogram:\n%s", out)
	}
}

func TestWritePrometheusLabeled(t *testing.T) {
	mk := func(jobs int64, depth float64, obsv []float64) Snapshot {
		r := NewRegistry()
		r.Counter("cluster.jobs").Add(jobs)
		r.Gauge("queue.depth").Set(depth)
		h := r.Histogram("put.latency-ms", []float64{1, 10})
		for _, v := range obsv {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	var b strings.Builder
	err := WritePrometheusLabeled(&b, "shard", []LabeledSnapshot{
		{Value: "", Snapshot: mk(3, 1, nil)}, // cluster-wide: unlabeled
		{Value: "shard0", Snapshot: mk(10, 2, []float64{0.5})},
		{Value: `we"ird`, Snapshot: mk(20, 4, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"cluster_jobs 3\n",
		`cluster_jobs{shard="shard0"} 10`,
		`cluster_jobs{shard="we\"ird"} 20`,
		`queue_depth{shard="shard0"} 2`,
		`put_latency_ms_bucket{shard="shard0",le="1"} 1`,
		`put_latency_ms_bucket{le="+Inf"} 0`, // unlabeled part's bucket
		`put_latency_ms_sum{shard="shard0"} 0.5`,
		"put_latency_ms_sum 0\n", // empty histogram still gets the pair
		`put_latency_ms_count{shard="we\"ird"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per metric name even with three parts.
	if n := strings.Count(out, "# TYPE cluster_jobs counter"); n != 1 {
		t.Errorf("TYPE header for cluster_jobs appears %d times, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE put_latency_ms histogram"); n != 1 {
		t.Errorf("TYPE header for put_latency_ms appears %d times, want 1:\n%s", n, out)
	}
	// Headers must precede all samples of their metric (format rule).
	if strings.Index(out, "# TYPE cluster_jobs") > strings.Index(out, `cluster_jobs{shard="shard0"}`) {
		t.Errorf("TYPE header after sample:\n%s", out)
	}
}

func TestDebugServerHandlerOverride(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("native.counter").Add(1)
	d, err := StartDebugServerOpts("localhost:0", DebugOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{
			"/metrics/prom": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "override wins\n")
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body)
	}
	if out := get("/metrics/prom"); out != "override wins\n" {
		t.Errorf("/metrics/prom not overridden: %q", out)
	}
	if out := get("/metrics"); !strings.Contains(out, "native.counter") {
		t.Errorf("non-overridden /metrics lost the built-in handler: %q", out)
	}
}
