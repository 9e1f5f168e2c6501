package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serving.requests").Add(7)
	reg.Histogram("serving.latency.ms", LatencyBucketsMS).Observe(12)

	srv, err := StartDebugServerOpts("127.0.0.1:0", DebugOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "counter serving.requests 7") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "histogram serving.latency.ms count=1") {
		t.Fatalf("/metrics missing histogram:\n%s", body)
	}

	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not a snapshot: %v", err)
	}
	if snap.Counter("serving.requests") != 7 {
		t.Fatalf("/metrics.json counter = %d, want 7", snap.Counter("serving.requests"))
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars status %d body %.60s", code, body)
	}

	code, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

// TestDebugServerNewEndpoints covers /healthz, /debug/goroutines,
// /metrics/prom, and caller-mounted extra handlers.
func TestDebugServerNewEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serving.requests").Add(3)
	h := reg.Histogram("serving.latency.ms", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	srv, err := StartDebugServerOpts("127.0.0.1:0", DebugOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{
			"/extra": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "extra-ok")
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status     string `json:"status"`
		Goroutines int    `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Goroutines < 1 {
		t.Fatalf("/healthz = %+v", health)
	}

	code, body = get("/debug/goroutines")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/goroutines status %d body %.80s", code, body)
	}

	code, body = get("/metrics/prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics/prom status %d", code)
	}
	if !strings.Contains(body, "# TYPE serving_requests counter") ||
		!strings.Contains(body, "serving_requests 3") {
		t.Fatalf("/metrics/prom missing sanitised counter:\n%s", body)
	}
	// Buckets must be cumulative: 1 at le=10, 2 at le=100, 3 at +Inf.
	for _, want := range []string{
		`serving_latency_ms_bucket{le="10"} 1`,
		`serving_latency_ms_bucket{le="100"} 2`,
		`serving_latency_ms_bucket{le="+Inf"} 3`,
		"serving_latency_ms_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics/prom missing %q:\n%s", want, body)
		}
	}

	code, body = get("/extra")
	if code != http.StatusOK || body != "extra-ok" {
		t.Fatalf("/extra status %d body %q", code, body)
	}
}

// TestPrometheusEscaping: hostile instrument names cannot corrupt the
// exposition (sanitised names, escaped HELP) and the plaintext format
// quotes names that would break its line orientation.
func TestPrometheusEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("weird name\nwith \"newline\"").Add(1)
	snap := reg.Snapshot()

	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	if !strings.Contains(out, "weird_name_with__newline_ 1") {
		t.Errorf("prometheus name not sanitised:\n%s", out)
	}
	if !strings.Contains(out, `# HELP weird_name_with__newline_ weird name\nwith "newline"`) {
		t.Errorf("HELP newline not escaped:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.ContainsAny(line, "\r") || line == "" {
			t.Errorf("corrupt exposition line %q", line)
		}
	}

	var text strings.Builder
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `counter "weird name\nwith \"newline\"" 1`) {
		t.Errorf("plaintext name not quoted:\n%s", text.String())
	}
	if got := strings.Count(text.String(), "\n"); got != 1 {
		t.Errorf("plaintext emitted %d lines for one counter", got)
	}
}

func TestDebugServerNilSafety(t *testing.T) {
	var srv *DebugServer
	if srv.Addr() != "" {
		t.Fatal("nil server must report empty address")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestPrometheusStoreRecoveryNames: the durability layer's counter
// names (dots and dashes) sanitise to legal Prometheus metric names
// and keep the original spelling in HELP.
func TestPrometheusStoreRecoveryNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("store.recovery.replayed").Add(7)
	reg.Counter("store.recovery.quarantined").Add(2)
	reg.Counter("store.recovery.truncated-bytes").Add(13)
	reg.Counter("store.wal.append-errors").Add(1)
	reg.Counter("store.writebehind.flush-errors").Add(3)

	var prom strings.Builder
	if err := reg.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"store_recovery_replayed 7",
		"store_recovery_quarantined 2",
		"store_recovery_truncated_bytes 13",
		"store_wal_append_errors 1",
		"store_writebehind_flush_errors 3",
		"# HELP store_recovery_truncated_bytes store.recovery.truncated-bytes",
		"# TYPE store_wal_append_errors counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics/prom missing %q:\n%s", want, out)
		}
	}
}
