package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	rpprof "runtime/pprof"
	"time"
)

// DebugServer exposes runtime introspection over HTTP:
//
//	/metrics          — plaintext registry snapshot
//	/metrics.json     — JSON registry snapshot
//	/metrics/prom     — Prometheus text exposition format
//	/healthz          — liveness probe (JSON)
//	/debug/goroutines — full goroutine dump
//	/debug/vars       — expvar (memstats, cmdline)
//	/debug/pprof/     — net/http/pprof profiles
//
// plus any extra handlers the caller mounts via DebugOptions.
type DebugServer struct {
	srv *http.Server
	lis net.Listener
}

// DebugOptions configures StartDebugServerOpts.
type DebugOptions struct {
	// Registry backs the /metrics endpoints (nil serves empty
	// snapshots).
	Registry *Registry
	// Handlers mounts extra endpoints by path (e.g. "/slo"); they must
	// not collide with the built-in paths.
	Handlers map[string]http.Handler
}

// StartDebugServerOpts listens on addr (e.g. "localhost:6060"; ":0"
// picks a free port) and serves introspection endpoints rendered from
// opts.Registry, plus opts.Handlers, until Close. It never blocks the
// pipeline: failures to serve are dropped.
func StartDebugServerOpts(addr string, opts DebugOptions) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	mux := http.NewServeMux()
	// A caller-supplied handler on a built-in path replaces the default
	// (registering both would panic the mux); callers use this to serve
	// e.g. a merged multi-registry /metrics/prom.
	handleFunc := func(path string, h http.HandlerFunc) {
		if _, override := opts.Handlers[path]; !override {
			mux.HandleFunc(path, h)
		}
	}
	handleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.Snapshot().WriteText(w)
	})
	handleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(reg.Snapshot())
	})
	handleFunc("/metrics/prom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	handleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":     "ok",
			"goroutines": runtime.NumGoroutine(),
		})
	})
	handleFunc("/debug/goroutines", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rpprof.Lookup("goroutine").WriteTo(w, 1)
	})
	if _, override := opts.Handlers["/debug/vars"]; !override {
		mux.Handle("/debug/vars", expvar.Handler())
	}
	handleFunc("/debug/pprof/", pprof.Index)
	handleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	handleFunc("/debug/pprof/profile", pprof.Profile)
	handleFunc("/debug/pprof/symbol", pprof.Symbol)
	handleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range opts.Handlers {
		mux.Handle(path, h)
	}

	d := &DebugServer{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, lis: lis}
	go d.srv.Serve(lis)
	return d, nil
}

// Addr reports the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.lis.Addr().String()
}

// Close shuts the server down.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
