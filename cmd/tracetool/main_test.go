package main

import (
	"bytes"
	"context"
	"errors"
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

// TestUsageNamesEverySubcommand: the bare usage error and the unknown
// subcommand error list the same subcommands, and each one they list is
// dispatched rather than reported unknown.
func TestUsageNamesEverySubcommand(t *testing.T) {
	usage := run(nil, &bytes.Buffer{})
	unknown := run([]string{"check-bench"}, &bytes.Buffer{})
	if usage == nil || unknown == nil {
		t.Fatalf("usage = %v, unknown = %v; want both errors", usage, unknown)
	}
	for _, sub := range []string{"analyze", "diff", "profile", "store", "incident", "fuzz"} {
		if !strings.Contains(usage.Error(), sub) || !strings.Contains(unknown.Error(), sub) {
			t.Errorf("%q missing from %q or %q", sub, usage, unknown)
		}
		if err := run([]string{sub}, &bytes.Buffer{}); err != nil && strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: %v", sub, err)
		}
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
