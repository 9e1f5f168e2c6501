package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"edgetune"
)

// quickArgs keep CLI tests fast: a tiny job file overriding the search
// scale.
func quickJobFile(t *testing.T, job edgetune.Job) string {
	t.Helper()
	if job.Configs == 0 {
		job.Configs = 2
	}
	if job.Rungs == 0 {
		job.Rungs = 2
	}
	if job.Brackets == 0 {
		job.Brackets = 1
	}
	if job.InferenceTrials == 0 {
		job.InferenceTrials = 4
	}
	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "job.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunTextReport(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{Workload: "IC", Seed: 1})
	var out bytes.Buffer
	if err := run([]string{"-job", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"EdgeTune report",
		"workload IC on device i7",
		"inference recommendation (i7):",
		"batch size",
		"throughput",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSONReport(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{Workload: "IC", Seed: 1})
	var out bytes.Buffer
	if err := run([]string{"-job", path, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep edgetune.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Workload != "IC" || rep.TrialsRun == 0 {
		t.Errorf("unexpected report: %+v", rep)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "XX"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-job", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing job file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-job", bad}, &out); err == nil {
		t.Error("corrupt job file accepted")
	}
	if err := run([]string{"-bogus-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunChaosTextReport(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{
		Workload: "IC",
		Seed:     1,
		Faults:   edgetune.FaultConfig{TrialCrash: 0.3, DroppedReply: 0.3},
	})
	var out bytes.Buffer
	if err := run([]string{"-job", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"resilience:", "faults injected", "retries"} {
		if !strings.Contains(got, want) {
			t.Errorf("chaos report missing %q:\n%s", want, got)
		}
	}
}

func TestRunOverloadTextReport(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{
		Workload: "IC",
		Seed:     1,
		Faults:   edgetune.FaultConfig{OverloadBurst: 0.5},
	})
	var out bytes.Buffer
	if err := run([]string{"-job", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"serving:", "shed", "rate limited", "hedges (won)", "drained"} {
		if !strings.Contains(got, want) {
			t.Errorf("overload report missing %q:\n%s", want, got)
		}
	}
	// Same seed, same job: the serving block must be byte-stable.
	var again bytes.Buffer
	if err := run([]string{"-job", path}, &again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Error("identically-seeded runs produced different reports")
	}
}

func TestRunMetricsSLOSection(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{
		Workload: "IC",
		Seed:     1,
		Faults:   edgetune.FaultConfig{OverloadBurst: 0.5},
	})
	var out bytes.Buffer
	if err := run([]string{"-job", path, "-metrics"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"metrics:", "slo (horizon", "serving/rejections", "serving/latency",
		"tuning/trial-overrun", "window",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFaultFlagValidation(t *testing.T) {
	// Malformed flag values must fail fast with a one-line error before
	// any trial runs — this exercises the flag plumbing without a full
	// tuning job.
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"prob-above-one", []string{"-fault-crash", "1.5"}, "outside [0,1]"},
		{"prob-negative", []string{"-fault-flash-crowd", "-0.1"}, "outside [0,1]"},
		{"mass-devicefail-above-one", []string{"-fault-mass-devicefail", "2"}, "outside [0,1]"},
		{"scale-stall-negative", []string{"-fault-scale-stall", "-1"}, "outside [0,1]"},
		{"shard-kill-above-one", []string{"-fault-shard-kill", "7"}, "outside [0,1]"},
		{"negative-max-attempts", []string{"-max-attempts", "-2"}, "negative"},
		{"negative-autoscale-min", []string{"-autoscale-min", "-1"}, "negative"},
		{"negative-autoscale-max", []string{"-autoscale-max", "-4"}, "negative"},
		{"negative-tenant-rate", []string{"-tenant-rate", "-0.5"}, "negative"},
		{"negative-tenant-burst", []string{"-tenant-burst", "-4"}, "negative"},
		{"negative-brownout-factor", []string{"-brownout-factor", "-6"}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-workload", "IC"}, tc.args...), &out)
			if err == nil {
				t.Fatalf("%v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.args[0]) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %q, want it to name %s and say %q", err, tc.args[0], tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("validation error spans multiple lines: %q", err)
			}
		})
	}
	// The documented exception: a negative -store-snapshot-every
	// disables periodic compaction and must stay accepted — on a run
	// that really opens the store the flags name.
	path := quickJobFile(t, edgetune.Job{Workload: "IC", Seed: 1})
	var out bytes.Buffer
	st := filepath.Join(t.TempDir(), "h.json")
	if err := run([]string{"-job", path, "-store", st, "-store-snapshot-every", "-1", "-json"}, &out); err != nil {
		t.Fatalf("negative -store-snapshot-every rejected: %v", err)
	}
	var rep edgetune.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.StoreRecovery == nil {
		t.Error("-store beside -job opened no store")
	}
	if _, err := os.Stat(st + ".wal"); err != nil {
		t.Errorf("-store beside -job left no write-ahead log: %v", err)
	}
}

// TestRunJobFileAndFlagsCompose: the job file is the job, a flag given
// beside it overrides the file's value for its field, a flag not given
// leaves the file's value alone, and a value out of range is rejected
// with the flag's name whichever of the two it came from.
func TestRunJobFileAndFlagsCompose(t *testing.T) {
	dir := t.TempDir()
	file := edgetune.Job{Workload: "IC", Seed: 5, Faults: edgetune.FaultConfig{TrialCrash: 0.6}}
	path := quickJobFile(t, file)
	reportOf := func(t *testing.T, path string, args ...string) edgetune.Report {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-job", path, "-json"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		var rep edgetune.Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	report := func(t *testing.T, args ...string) edgetune.Report {
		t.Helper()
		return reportOf(t, path, args...)
	}
	// What a flag beside the file must give: the run of a file that
	// already says so.
	want := func(t *testing.T, edit func(*edgetune.Job)) edgetune.Report {
		t.Helper()
		job := file
		edit(&job)
		return reportOf(t, quickJobFile(t, job))
	}
	same := func(t *testing.T, got, want edgetune.Report) {
		t.Helper()
		if got.Digest() != want.Digest() || got.TuningMinutes != want.TuningMinutes ||
			got.Resilience.TotalFaults != want.Resilience.TotalFaults {
			t.Errorf("got digest %s, %.3f minutes, %d faults; want %s, %.3f, %d",
				got.Digest(), got.TuningMinutes, got.Resilience.TotalFaults,
				want.Digest(), want.TuningMinutes, want.Resilience.TotalFaults)
		}
	}

	t.Run("unset-flags-leave-the-file", func(t *testing.T) {
		base := report(t)
		if base.Resilience.TotalFaults == 0 {
			t.Fatal("the file's faults were dropped")
		}
		// -seed defaults to 1 without a file; beside one, the file's 5 stays.
		same(t, report(t, "-seed", "5"), base)
		if seed1 := report(t, "-seed", "1"); seed1.TuningMinutes == base.TuningMinutes {
			t.Error("the file's seed gave way to the flag's default")
		}
	})
	t.Run("seed", func(t *testing.T) {
		same(t, report(t, "-seed", "9"), want(t, func(j *edgetune.Job) { j.Seed = 9 }))
	})
	t.Run("fault-crash", func(t *testing.T) {
		got := report(t, "-fault-crash", "0")
		same(t, got, want(t, func(j *edgetune.Job) { j.Faults.TrialCrash = 0 }))
		if got.Resilience.TotalFaults != 0 {
			t.Errorf("-fault-crash 0 left %d faults", got.Resilience.TotalFaults)
		}
	})
	t.Run("store-and-checkpoint", func(t *testing.T) {
		st := filepath.Join(dir, "h.json")
		if rep := report(t, "-store", st, "-checkpoint"); rep.StoreRecovery == nil {
			t.Fatal("-store opened no store")
		}
		// The rerun finds the finished job's checkpoint in the store.
		if rep := report(t, "-store", st, "-checkpoint"); rep.Resilience.ResumedRungs == 0 {
			t.Error("-checkpoint beside -job resumed nothing on the rerun")
		}
	})
	t.Run("removed-keys-still-decode", func(t *testing.T) {
		// A file written for an older build names options that are now
		// constants; it decodes and runs as the file without them.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		doc["FlightSlots"], doc["StoreWAL"] = 64, true
		if data, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		old := filepath.Join(dir, "old.json")
		if err := os.WriteFile(old, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, want := reportOf(t, old), report(t); !reflect.DeepEqual(got, want) {
			t.Errorf("the file with removed keys reported\n%+v\nwithout them\n%+v", got, want)
		}
	})
	for name, tc := range map[string]struct {
		file edgetune.Job
		args []string
		want string
	}{
		"flag-out-of-range": {file, []string{"-fault-crash", "1.5"}, "-fault-crash"},
		"file-out-of-range": {edgetune.Job{Workload: "IC", MaxTrialAttempts: -2}, nil, "-max-attempts"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(append([]string{"-job", quickJobFile(t, tc.file)}, tc.args...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %s", err, tc.want)
			}
		})
	}
}

func TestRunAutoscaleTextReport(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-workload", "IC", "-seed", "7",
		"-autoscale", "-autoscale-max", "3",
		"-fault-flash-crowd", "0.3",
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"autoscale:",
		"scale up/down",
		"ladder",
		"warm-up cost",
		"digest",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("autoscale report missing %q:\n%s", want, got)
		}
	}
	// Same seed, same flags: the autoscale block (digest included) must
	// be byte-stable.
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if got != again.String() {
		t.Error("identically-seeded autoscaled runs produced different reports")
	}
}

// TestRunClusterServesDebugAddr: -debug-addr reaches a cluster run too —
// its debug server answers while the job tunes.
func TestRunClusterServesDebugAddr(t *testing.T) {
	// run does not say which port "localhost:0" became: take a free one.
	lis, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	path := quickJobFile(t, edgetune.Job{Workload: "IC", Seed: 3, Configs: 4, Rungs: 3})
	finished := make(chan error, 1)
	go func() {
		finished <- run([]string{"-job", path, "-cluster", "2", "-cluster-dir", t.TempDir(), "-debug-addr", addr}, io.Discard)
	}()
	healthy := false
	for !healthy {
		select {
		case err := <-finished:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("the cluster run finished without %s/healthz ever answering", addr)
		default:
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			time.Sleep(time.Millisecond) // not listening yet
			continue
		}
		resp.Body.Close()
		healthy = resp.StatusCode == http.StatusOK
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
}

func TestRunNoInferenceOmitsRecommendation(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{Workload: "IC", Seed: 1, WithoutInference: true})
	var out bytes.Buffer
	if err := run([]string{"-job", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "inference recommendation") {
		t.Error("inference-unaware run printed a recommendation")
	}
}

// TestTraceFlagDeterministic: running the CLI twice with the same job
// and seed must produce byte-identical trace files.
func TestTraceFlagDeterministic(t *testing.T) {
	path := quickJobFile(t, edgetune.Job{
		Workload: "IC",
		Seed:     11,
		Faults:   edgetune.FaultConfig{TrialCrash: 0.2, Straggler: 0.2},
	})
	dir := t.TempDir()
	trace := func(name string) []byte {
		t.Helper()
		out := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := run([]string{"-job", path, "-trace", out}, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatal("trace file is empty")
		}
		return data
	}
	a, b := trace("a.jsonl"), trace("b.jsonl")
	if !bytes.Equal(a, b) {
		t.Error("same-seed trace files differ")
	}
}
