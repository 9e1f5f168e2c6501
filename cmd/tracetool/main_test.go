package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgetune/internal/autoscale"
	"edgetune/internal/core"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
	"edgetune/internal/obs/analyze"
	"edgetune/internal/workload"
)

// traceJob runs one small same-seed tuning job and saves its JSONL
// trace to path.
func traceJob(t *testing.T, path string, seed uint64) {
	t.Helper()
	tr := obs.NewTracer()
	_, err := core.Tune(context.Background(), core.Options{
		Workload:       workload.MustNew("IC", 1),
		InitialConfigs: 2,
		Rungs:          2,
		MaxBrackets:    1,
		InferenceAware: true,
		SystemParams:   true,
		Seed:           seed,
		Fault:          fault.Config{TrialCrash: 0.2, DroppedReply: 0.1},
		Trace:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeAndDiffDeterministic: two same-seed runs analyse to
// byte-identical reports and diff clean; the analysis names the
// sections the issue demands.
func TestAnalyzeAndDiffDeterministic(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	traceJob(t, a, 11)
	traceJob(t, b, 11)

	var outA, outB bytes.Buffer
	if err := run([]string{"analyze", a}, &outA); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"analyze", b}, &outB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outA.Bytes(), outB.Bytes()) {
		t.Errorf("same-seed analyses differ:\n%s\n---\n%s", outA.String(), outB.String())
	}
	for _, section := range []string{
		"critical paths", "queue wait vs service", "per-device breakdown", "hedging",
	} {
		if !strings.Contains(outA.String(), section) {
			t.Errorf("analysis missing %q section:\n%s", section, outA.String())
		}
	}

	var diff1, diff2 bytes.Buffer
	if err := run([]string{"diff", a, b}, &diff1); err != nil {
		t.Errorf("same-seed diff must pass the gate: %v\n%s", err, diff1.String())
	}
	if err := run([]string{"diff", a, b}, &diff2); err != nil {
		t.Errorf("repeat diff: %v", err)
	}
	if !bytes.Equal(diff1.Bytes(), diff2.Bytes()) {
		t.Errorf("diff output not deterministic:\n%s\n---\n%s", diff1.String(), diff2.String())
	}

	// A different seed moves span totals; the gate must notice.
	c := filepath.Join(dir, "c.jsonl")
	traceJob(t, c, 12)
	var diffC bytes.Buffer
	if err := run([]string{"diff", "-threshold", "0.01", a, c}, &diffC); !errors.Is(err, errGate) {
		t.Errorf("cross-seed diff err = %v, want gate failure\n%s", err, diffC.String())
	}
}

// TestAnalyzeAutoscaledTraceScaleEvents: the autoscaler's scale-event
// spans land on TrackAutoscale, and the analyser surfaces them as their
// own span class — so "where did the time go?" can answer "the control
// loop fired N times" without a dedicated report section.
func TestAnalyzeAutoscaledTraceScaleEvents(t *testing.T) {
	tr := obs.NewTracer()
	_, err := core.Tune(context.Background(), core.Options{
		Workload:       workload.MustNew("IC", 1),
		InitialConfigs: 2,
		Rungs:          2,
		MaxBrackets:    1,
		InferenceAware: true,
		SystemParams:   true,
		Seed:           7,
		Fault:          fault.Config{FlashCrowd: 0.4},
		Autoscale:      &autoscale.Config{},
		Trace:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "autoscaled.jsonl")
	if err := tr.SaveJSONL(path); err != nil {
		t.Fatal(err)
	}

	rep := analyze.Analyze(mustParse(t, path))
	found := false
	for _, c := range rep.Classes {
		if c.Name == "scale-event" {
			found = true
			if c.Count == 0 {
				t.Error("scale-event class present but counted no spans")
			}
		}
	}
	if !found {
		t.Fatalf("scale-event missing from per-class stats: %+v", rep.Classes)
	}

	var out bytes.Buffer
	if err := run([]string{"analyze", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scale-event") {
		t.Errorf("analyze text output lacks the scale-event class:\n%s", out.String())
	}
}

func mustParse(t *testing.T, path string) *analyze.Trace {
	t.Helper()
	tr, err := analyze.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAnalyzeMalformedTrace: a truncated trace is reported, not fatal.
func TestAnalyzeMalformedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	content := `{"id":1,"parent":0,"name":"request","track":2,"startNs":0,"durNs":10}` + "\n" +
		"{garbage\n" +
		`{"id":2,"parent":1,"name":"serve","track":2,"startNs":3,"durNs":7` // truncated
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"analyze", path}, &out); err != nil {
		t.Fatalf("malformed trace must not fail the analysis: %v", err)
	}
	if !strings.Contains(out.String(), "2 malformed lines skipped") {
		t.Errorf("analysis must surface malformed lines:\n%s", out.String())
	}
}

func writeBench(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckBench: wall time is a recorded column, not a gate — a run
// five times slower than the baseline is printed and passes.
func TestCheckBench(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeBench(t, base, `{"experiments":[{"id":"Table 2","title":"t","rows":3,"wallSeconds":2.0}],"totalSeconds":2.0}`)
	slow := filepath.Join(dir, "slow.json")
	writeBench(t, slow, `{"experiments":[{"id":"Table 2","title":"t","rows":3,"wallSeconds":10.0}],"totalSeconds":10.0}`)
	var out bytes.Buffer
	if err := run([]string{"check-bench", "-baseline", base, slow}, &out); err != nil {
		t.Fatalf("wall time must not gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2.000000s -> 10.000000s wall (not gated)") {
		t.Errorf("output must still record the wall time:\n%s", out.String())
	}
}

// TestCheckBenchAllocGate: the alloc gate fires on a real allocs/op
// regression (exit 2), tolerates growth within tolerance+slack, and
// skips experiments without a probe in either run.
func TestCheckBenchAllocGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeBench(t, base, `{"experiments":[
		{"id":"BenchmarkWALAppend","title":"t","rows":1,"wallSeconds":0.1,"allocs_per_op":100},
		{"id":"Table 2","title":"t","rows":3,"wallSeconds":0.1}],"totalSeconds":0.2}`)

	// 3x the baseline allocs: well past 100*1.25+16.
	slow := filepath.Join(dir, "alloc-regress.json")
	writeBench(t, slow, `{"experiments":[
		{"id":"BenchmarkWALAppend","title":"t","rows":1,"wallSeconds":0.1,"allocs_per_op":300},
		{"id":"Table 2","title":"t","rows":3,"wallSeconds":0.1}],"totalSeconds":0.2}`)
	var out bytes.Buffer
	if err := run([]string{"check-bench", "-baseline", base, slow}, &out); !errors.Is(err, errGate) {
		t.Fatalf("alloc regression err = %v, want gate failure\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op exceeds limit") {
		t.Errorf("output must name the alloc regression:\n%s", out.String())
	}

	// Within tolerance + slack: 100 -> 130 <= 100*1.25+16.
	ok := filepath.Join(dir, "alloc-ok.json")
	writeBench(t, ok, `{"experiments":[
		{"id":"BenchmarkWALAppend","title":"t","rows":1,"wallSeconds":0.1,"allocs_per_op":130},
		{"id":"Table 2","title":"t","rows":3,"wallSeconds":0.1}],"totalSeconds":0.2}`)
	out.Reset()
	if err := run([]string{"check-bench", "-baseline", base, ok}, &out); err != nil {
		t.Fatalf("in-tolerance alloc growth must pass: %v\n%s", err, out.String())
	}

	// Probe absent from the current run: skip, not a 0-vs-100 failure.
	noprobe := filepath.Join(dir, "alloc-none.json")
	writeBench(t, noprobe, `{"experiments":[
		{"id":"BenchmarkWALAppend","title":"t","rows":1,"wallSeconds":0.1},
		{"id":"Table 2","title":"t","rows":3,"wallSeconds":0.1}],"totalSeconds":0.2}`)
	out.Reset()
	if err := run([]string{"check-bench", "-baseline", base, noprobe}, &out); err != nil {
		t.Fatalf("missing current probe must skip, got: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no allocs/op in current run") {
		t.Errorf("output must note the skipped probe:\n%s", out.String())
	}
}

// TestCheckBenchBytesGate: bytes/op is held the way allocs/op is — the
// same tolerance, a fixed 1 KiB of slack — so a loop that keeps its
// allocation count and grows what it allocates still fails.
func TestCheckBenchBytesGate(t *testing.T) {
	dir := t.TempDir()
	bench := func(name string, bytes int) string {
		path := filepath.Join(dir, name)
		writeBench(t, path, fmt.Sprintf(`{"experiments":[
			{"id":"BenchmarkTrialRun","title":"t","rows":1,"wallSeconds":0.1,"allocs_per_op":100,"bytes_per_op":%d}]}`, bytes))
		return path
	}
	base := bench("base.json", 20000)
	var out bytes.Buffer
	// 20000*1.25 + 1024 = 26024.
	if err := run([]string{"check-bench", "-baseline", base, bench("ok.json", 26024)}, &out); err != nil {
		t.Fatalf("in-tolerance bytes growth must pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"check-bench", "-baseline", base, bench("grown.json", 26025)}, &out); !errors.Is(err, errGate) {
		t.Fatalf("bytes regression err = %v, want gate failure\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bytes/op exceeds limit") || !strings.Contains(out.String(), "ok   BenchmarkTrialRun") {
		t.Errorf("output must pass the count and name the bytes regression:\n%s", out.String())
	}
	// The tolerance flag governs both columns; the byte slack is not a flag.
	out.Reset()
	if err := run([]string{"check-bench", "-baseline", base, "-alloc-tolerance", "0", "-alloc-slack", "0", bench("kib.json", 21025)}, &out); !errors.Is(err, errGate) {
		t.Fatalf("1 KiB + 1 over a zero-tolerance baseline: err = %v, want gate failure\n%s", err, out.String())
	}
}

// pprofString encodes one Profile.string_table entry (field 6).
func pprofString(b []byte, s string) []byte {
	b = append(b, 6<<3|2, byte(len(s)))
	return append(b, s...)
}

// TestProfileCheck: the profile gate passes when every wanted string
// is in the profile's string table and exits 2 when one is missing.
func TestProfileCheck(t *testing.T) {
	var raw []byte
	for _, s := range []string{"", "samples", "tenant", "acme", "rung"} {
		raw = pprofString(raw, s)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"profile", "check", "-want", "tenant,rung,acme", path}, &out); err != nil {
		t.Fatalf("present labels must pass: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := run([]string{"profile", "check", "-want", "tenant,shard", path}, &out); !errors.Is(err, errGate) {
		t.Fatalf("missing label err = %v, want gate failure\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "MISS shard") {
		t.Errorf("output must name the missing string:\n%s", out.String())
	}
}
