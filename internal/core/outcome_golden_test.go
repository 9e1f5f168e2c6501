package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/device"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/flight"
	"edgetune/internal/obs/slo"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

var updateOutcomes = flag.Bool("update-outcomes", false, "rewrite testdata/request_outcomes.golden")

// outcomeEnv is one scenario's server with every observer attached.
type outcomeEnv struct {
	t   *testing.T
	srv *InferenceServer
	// cancel aborts the context handed to submitCancellable; onFlap, when
	// set, runs on the worker as it consults the device-flap site — the
	// one deterministic point inside a request being served.
	ctx    context.Context
	cancel context.CancelFunc
	onFlap func()
	chs    []<-chan InferOutcome
	got    map[int]InferOutcome // replies read before the end, by await
}

func (e *outcomeEnv) req(i int) InferRequest {
	r := sigRequest(i)
	r.SubmitTime = time.Duration(len(e.chs)) * 10 * time.Second
	return r
}

func (e *outcomeEnv) submit(r InferRequest) {
	e.chs = append(e.chs, e.srv.Submit(context.Background(), r))
}

func (e *outcomeEnv) submitCancellable(r InferRequest) {
	e.chs = append(e.chs, e.srv.Submit(e.ctx, r))
}

// await blocks for the reply of the i-th submission.
func (e *outcomeEnv) await(i int) {
	e.t.Helper()
	if _, ok := e.got[i]; !ok {
		e.got[i] = mustOutcome(e.t, e.chs[i])
	}
}

// outcomeScenario is one way a request can end. drive submits; the last
// submission's reply must carry the label want (outcomeLabel's
// vocabulary, plus "cached", "joined" and "hedged" for the three kinds of
// success that are not a plain "ok").
type outcomeScenario struct {
	name   string
	want   string
	cfg    func(*InferenceServerOptions)
	faults fault.Config
	plan   []fault.Event
	pool   []device.Device // nil = the I7 alone
	drive  func(e *outcomeEnv)
}

func outcomeScenarios() []outcomeScenario {
	sig0 := sigRequest(0).Signature
	return []outcomeScenario{
		{name: "cached", want: "cached", drive: func(e *outcomeEnv) {
			e.submit(e.req(0))
			e.await(0)
			e.submit(e.req(0))
		}},
		{name: "cached-reply-dropped", want: "fault:dropped-reply",
			plan: []fault.Event{{Class: fault.DroppedReply, Site: sig0 + "#1"}},
			drive: func(e *outcomeEnv) {
				e.submit(e.req(0))
				e.await(0)
				e.submit(e.req(0))
			}},
		{name: "joined", want: "joined", drive: func(e *outcomeEnv) {
			e.srv.adm.setHold(true)
			e.submit(e.req(0))
			e.submit(e.req(0))
			e.srv.adm.setHold(false)
		}},
		{name: "shed-burst", want: "shed",
			plan: []fault.Event{{Class: fault.OverloadBurst, Site: "admit/test-client#0"}},
			drive: func(e *outcomeEnv) {
				e.submit(e.req(0))
			}},
		{name: "no-healthy-device", want: "no-healthy-device",
			faults: fault.Config{DeviceFlap: 1},
			cfg:    func(o *InferenceServerOptions) { o.MaxAttempts = 1 },
			drive: func(e *outcomeEnv) {
				for i := 0; i <= breakerThreshold; i++ {
					e.submit(e.req(i))
					e.await(i)
				}
			}},
		{name: "queue-full", want: "shed",
			cfg: func(o *InferenceServerOptions) { o.QueueLimit = 1 },
			drive: func(e *outcomeEnv) {
				e.srv.adm.setHold(true)
				e.submit(e.req(0))
				e.submit(e.req(1))
				e.srv.adm.setHold(false)
			}},
		{name: "cancelled-queued", want: "cancelled", drive: func(e *outcomeEnv) {
			e.srv.adm.setHold(true)
			e.submitCancellable(e.req(0))
			e.cancel()
			e.await(0)
			e.srv.adm.setHold(false)
		}},
		{name: "cancelled-serving", want: "cancelled", drive: func(e *outcomeEnv) {
			e.onFlap = e.cancel
			e.submitCancellable(e.req(0))
		}},
		{name: "drain-evicted", want: "server-closed", drive: func(e *outcomeEnv) {
			e.srv.adm.setHold(true)
			e.submit(e.req(0))
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			if err := e.srv.Drain(expired); !errors.Is(err, context.Canceled) {
				e.t.Errorf("expired drain returned %v", err)
			}
		}},
		{name: "after-close", want: "server-closed", drive: func(e *outcomeEnv) {
			e.srv.Close()
			e.submit(e.req(0))
		}},
		{name: "served", want: "ok", drive: func(e *outcomeEnv) {
			e.submit(e.req(0))
		}},
		{name: "served-hedged", want: "hedged",
			faults: fault.Config{BrownoutFactor: 8},
			plan:   []fault.Event{{Class: fault.DeviceBrownout, Site: device.NameI7 + "/" + sig0}},
			pool:   twinPool(),
			drive: func(e *outcomeEnv) {
				e.submit(e.req(0))
			}},
		{name: "search-failed", want: "fault:device-flap",
			faults: fault.Config{DeviceFlap: 1},
			drive: func(e *outcomeEnv) {
				e.submit(e.req(0))
			}},
		{name: "store-write-failed", want: "fault:store-write",
			faults: fault.Config{StoreWrite: 1},
			drive: func(e *outcomeEnv) {
				e.submit(e.req(0))
			}},
		{name: "served-reply-dropped", want: "fault:dropped-reply",
			plan: []fault.Event{{Class: fault.DroppedReply, Site: sig0}},
			drive: func(e *outcomeEnv) {
				e.submit(e.req(0))
			}},
	}
}

// typedErrors are the sentinels a caller may test a reply against; the
// golden records which of them each reply's error wraps.
var typedErrors = []struct {
	name string
	err  error
}{
	{"overloaded", ErrOverloaded},
	{"server-closed", ErrServerClosed},
	{"no-healthy-device", ErrNoHealthyDevice},
	{"circuit-open", ErrCircuitOpen},
	{"canceled", context.Canceled},
	{"deadline", context.DeadlineExceeded},
}

func replyLabel(out InferOutcome) string {
	switch {
	case out.Err != nil:
		return outcomeLabel(out.Err)
	case out.Cached && out.Latency > 0: // the leader's result, shared
		return "joined"
	case out.Cached:
		return "cached"
	case out.Hedged:
		return "hedged"
	}
	return "ok"
}

// runOutcomeScenario drives one scenario on a fresh server and renders
// everything observable about it.
func runOutcomeScenario(t *testing.T, sc outcomeScenario, w *bytes.Buffer) {
	t.Helper()
	e := &outcomeEnv{t: t, got: make(map[int]InferOutcome)}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	defer e.cancel()

	cfg := sc.faults
	if len(sc.plan) > 0 {
		plan, err := fault.NewPlan(sc.plan)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plan = plan
	}
	cfg.Observe = func(class fault.Class, _ string, _ int, _ bool) {
		if class == fault.DeviceFlap && e.onFlap != nil {
			e.onFlap()
		}
	}
	rec := counters.NewResilience()
	inj, err := fault.NewInjector(cfg, 3, rec)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.I7()
	space, err := workload.MustNew("IC", 1).InferenceSpace(dev)
	if err != nil {
		t.Fatal(err)
	}
	tr, ev, fr := obs.NewTracer(), slo.NewEvaluator(), flight.New(256)
	opts := InferenceServerOptions{
		Device: dev, Space: space, Metric: MetricRuntime, Trials: 6, Workers: 1,
		Store: store.New(), Seed: 7, Recorder: rec, Fault: inj, Trace: tr, SLO: ev, Flight: fr,
	}
	if sc.cfg != nil {
		sc.cfg(&opts)
	}
	pool := sc.pool
	if pool == nil {
		pool = []device.Device{dev}
	}
	e.srv, err = newInferenceServer(opts, pool)
	if err != nil {
		t.Fatal(err)
	}
	sc.drive(e)
	replies := make([]InferOutcome, len(e.chs))
	for i := range e.chs {
		e.await(i)
		replies[i] = e.got[i]
	}
	e.srv.Close()
	for i, ch := range e.chs {
		if len(ch) != 0 {
			t.Errorf("%s: caller %d was answered twice", sc.name, i)
		}
	}
	last := len(replies) - 1
	if got := replyLabel(replies[last]); got != sc.want {
		t.Errorf("%s: last reply ended %q (%+v), want %q", sc.name, got, replies[last], sc.want)
	}

	fmt.Fprintf(w, "=== %s\n", sc.name)
	for i, out := range replies {
		view := struct {
			InferOutcome
			Err string
			Is  []string
		}{InferOutcome: out}
		view.InferOutcome.Err = nil
		if out.Err != nil {
			view.Err = out.Err.Error()
			for _, te := range typedErrors {
				if errors.Is(out.Err, te.err) {
					view.Is = append(view.Is, te.name)
				}
			}
			if fault.IsFault(out.Err) {
				view.Is = append(view.Is, "fault:"+string(fault.ClassOf(out.Err)))
			}
		}
		line, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "reply %d: %s\n", i, line)
	}
	for _, c := range rec.Registry().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "serving.") || strings.HasPrefix(c.Name, "resilience.") {
			fmt.Fprintf(w, "counter %s %d\n", c.Name, c.Value)
		}
	}
	snap, err := json.Marshal(ev.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "slo %s\n", snap)
	for _, fe := range fr.Events() {
		line, err := json.Marshal(fe)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "flight %s\n", line)
	}
	w.WriteString("trace:\n")
	if err := tr.WriteJSONL(w); err != nil {
		t.Fatal(err)
	}
}

// TestRequestOutcomesGolden drives a traced, SLO'd, flight-recorded
// server through every way a request can end and compares what each
// caller received and what every observer recorded, byte for byte, with
// a golden written by the code as it stood before the serving path was
// rewritten around one finish function (PR 19). Run with
// -update-outcomes only when an observable is meant to move.
func TestRequestOutcomesGolden(t *testing.T) {
	path := filepath.Join("testdata", "request_outcomes.golden")
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprint("procs=", procs), func(t *testing.T) {
			testutil.CheckGoroutineLeak(t, 0)
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			var got bytes.Buffer
			for _, sc := range outcomeScenarios() {
				runOutcomeScenario(t, sc, &got)
			}
			if *updateOutcomes && procs == 1 {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("outcomes differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("outcomes differ from %s in length: got %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
