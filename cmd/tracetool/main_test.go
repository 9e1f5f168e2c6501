package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgetune/internal/core"
	"edgetune/internal/fault"
	"edgetune/internal/obs"
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
		"critical paths", "queue wait vs service", "per-device breakdown", "requests",
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

// TestChromeConverts: `tracetool chrome` writes the trace's Chrome view,
// the same for two same-seed traces, and a wrong argument count is a
// usage error.
func TestChromeConverts(t *testing.T) {
	dir := t.TempDir()
	var views [2][]byte
	for i, name := range []string{"a", "b"} {
		in, out := filepath.Join(dir, name+".jsonl"), filepath.Join(dir, name+".json")
		traceJob(t, in, 11)
		if err := run([]string{"chrome", in, out}, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
		views[i] = mustReadFile(t, out)
	}
	if !bytes.Equal(views[0], views[1]) {
		t.Error("same-seed traces convert to different Chrome files")
	}
	if !bytes.HasPrefix(views[0], []byte(`{"traceEvents":[{"name":"thread_name"`)) || !bytes.Contains(views[0], []byte(`"ph":"X"`)) {
		t.Errorf("not a Chrome trace: %.200s", views[0])
	}
	if err := run([]string{"chrome", filepath.Join(dir, "a.jsonl")}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("one argument: err = %v, want the usage", err)
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
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
	for _, sub := range []string{"analyze", "diff", "chrome", "profile", "store", "incident", "fuzz"} {
		if !strings.Contains(usage.Error(), sub) || !strings.Contains(unknown.Error(), sub) {
			t.Errorf("%q missing from %q or %q", sub, usage, unknown)
		}
		if err := run([]string{sub}, &bytes.Buffer{}); err != nil && strings.Contains(err.Error(), "unknown subcommand") {
			t.Errorf("%s: %v", sub, err)
		}
	}
}

// TestStoreVerifyFailsASalvagedStore: store verify is recovery without
// the repairs, so a snapshot recovery has to salvage — an entry with an
// empty signature and a checkpoint with an empty key beside a valid
// entry — fails the gate (exit 2) and is left as it was.
func TestStoreVerifyFailsASalvagedStore(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "store.json")
	planted := []byte(`{"entries":[{"signature":"IC/layers=18","device":"i7","config":{"cores":2}},` +
		`{"signature":"","device":"i7","config":{}}],"checkpoints":{"":{"rung":1}}}`)
	if err := os.WriteFile(snap, planted, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"store", "verify", snap}, &out); !errors.Is(err, errGate) {
		t.Fatalf("store verify of a salvaged store: err = %v, want a gate failure\n%s", err, out.String())
	}
	if want := "1 entries, 0 checkpoints, 2 records quarantined"; !strings.Contains(out.String(), want) {
		t.Errorf("store verify output lacks %q:\n%s", want, out.String())
	}
	if !bytes.Equal(mustReadFile(t, snap), planted) {
		t.Error("store verify modified the snapshot")
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
