package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"edgetune/internal/fault"
	"edgetune/internal/testutil"
)

// faultRow is one fault class's row of the same-bytes table: the
// -faults spec that makes the class fire on the table's job, how many
// times the job runs at each GOMAXPROCS, and the line a run the class
// ends prints ("" when the job completes).
type faultRow struct {
	spec string
	runs int
	fail string
}

// faultTable holds one row per fault class, each in the scope
// fault.Class.Scope requires. A serving class fires only on the job's
// few inference misses, so those rows run near probability 1.
var faultTable = map[fault.Class]faultRow{
	fault.DeviceBrownout: {spec: "device-brownout=1", runs: 2},
	fault.DeviceFlap:     {spec: "device-flap=1", runs: 2},
	fault.DroppedReply:   {spec: "dropped-reply=1", runs: 2},
	fault.OverloadBurst:  {spec: "overload-burst=1", runs: 2},
	fault.StoreWrite:     {spec: "store-write=1", runs: 2},
	fault.Straggler:      {spec: "straggler=0.5", runs: 2},
	fault.TrialCrash:     {spec: "trial-crash=0.2", runs: 2},
	fault.TrialNaN:       {spec: "trial-nan=0.2", runs: 2},

	// The disk rows: the flusher's group commits and the checkpoint
	// appends race here, so they run most. A checkpoint append that is
	// not durable ends the job (DESIGN.md §4.9).
	fault.DiskSlowFsync: {spec: "disk-slow-fsync=0.5", runs: 5},
	fault.DiskBitFlip:   {spec: "disk-bit-flip=0.2", runs: 5},
	fault.DiskTornWrite: {spec: "disk-torn-write=0.3", runs: 5,
		fail: "edgetune: store: wal append: fault: injected disk-torn-write at store.db.wal: input/output error"},
	fault.DiskFull: {spec: "disk-full=0.3", runs: 5,
		fail: "edgetune: store: wal append: fault: injected disk-full at store.db.wal: no space left on device"},
	fault.DiskCrash: {spec: "disk-crash=0.05", runs: 5,
		fail: "edgetune: store: wal append: fault: injected disk-crash at store.db.wal: input/output error"},

	fault.ShardKill:    {spec: "shard-kill=1", runs: 2},
	fault.NetPartition: {spec: "net-partition=0.5", runs: 2},
	fault.FollowerLag:  {spec: "follower-lag=0.5", runs: 2},
}

// TestSameSeedSameBytesForEveryFaultClass: for every fault class a user
// can turn on, the same seed prints the same bytes — the text report
// and the -json report, with -metrics — and writes the same -trace file
// and the same dossiers, run after run, at GOMAXPROCS 1 and 2, each run
// into a fresh directory. Each row also holds that its class fired.
// The job is IC seed 5 on the dataset budget with checkpoints: a disk
// row adds a durable store, a cluster row runs on two shards.
func TestSameSeedSameBytesForEveryFaultClass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 94 tuning jobs")
	}
	if testutil.RaceEnabled {
		// 274 s under the detector on two cores. The paths it drives are
		// race-tested where they live: the buffer and group commit in
		// internal/store, the server in internal/core, faulted jobs end
		// to end in internal/chaosfuzz.
		t.Skip("94 tuning jobs are too slow under the race detector")
	}
	for _, class := range fault.Classes() {
		if _, ok := faultTable[class]; !ok {
			t.Errorf("fault class %s has no row", class)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, class := range fault.Classes() {
		row, ok := faultTable[class]
		if !ok {
			continue
		}
		t.Run(string(class), func(t *testing.T) {
			want := map[bool]artefacts{} // by -json
			fired := false
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for r := 0; r < row.runs; r++ {
					asJSON := r%2 == 1
					got := runFaultRow(t, class, row.spec, asJSON)
					if row.fail != "" && got.stdout != row.fail+"\n" {
						t.Fatalf("GOMAXPROCS %d run %d printed %q, want the job to end with %q", procs, r, got.stdout, row.fail)
					}
					if !asJSON && firedIn(class, got.stdout) {
						fired = true
					}
					first, seen := want[asJSON]
					if !seen {
						want[asJSON] = got
						continue
					}
					if diff := first.diff(got); diff != "" {
						t.Fatalf("-json=%v, GOMAXPROCS %d run %d differs from the first run: %s", asJSON, procs, r, diff)
					}
				}
			}
			if !fired {
				t.Errorf("%s never fired: %s", class, want[false].stdout)
			}
		})
	}
}

// artefacts is what one CLI run leaves: what it printed (the error line
// when it failed), its trace file and its dossiers by file name, with
// the run's directory masked.
type artefacts struct {
	stdout   string
	trace    string
	dossiers map[string]string
}

// diff names the first artefact b does not share with a, or "".
func (a artefacts) diff(b artefacts) string {
	if a.stdout != b.stdout {
		return "stdout: " + firstDiff(a.stdout, b.stdout)
	}
	if a.trace != b.trace {
		return "-trace file: " + firstDiff(a.trace, b.trace)
	}
	if len(a.dossiers) != len(b.dossiers) {
		return fmt.Sprintf("%d dossiers, want %d", len(b.dossiers), len(a.dossiers))
	}
	for name, data := range a.dossiers {
		if b.dossiers[name] != data {
			return "dossier " + name + ": " + firstDiff(data, b.dossiers[name])
		}
	}
	return ""
}

// firstDiff quotes the first line where a and b part.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q, first run %q", i+1, lb[i], la[i])
		}
	}
	return fmt.Sprintf("%d lines, first run %d", len(lb), len(la))
}

// runFaultRow runs the table's job under spec in a fresh directory.
func runFaultRow(t *testing.T, class fault.Class, spec string, asJSON bool) artefacts {
	t.Helper()
	dir := t.TempDir()
	args := []string{"-workload", "IC", "-seed", "5", "-budget", "dataset", "-checkpoint",
		"-faults", spec, "-metrics",
		"-trace", filepath.Join(dir, "trace.jsonl"),
		"-incidents-dir", filepath.Join(dir, "incidents")}
	switch {
	case class.Disk():
		args = append(args, "-store", filepath.Join(dir, "store.db"))
	case class.Cluster():
		args = append(args, "-cluster", "2", "-cluster-dir", filepath.Join(dir, "cluster"))
	}
	if asJSON {
		args = append(args, "-json")
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		out.Reset()
		printError(&out, err)
	}
	mask := func(b []byte) string { return strings.ReplaceAll(string(b), dir, "<scratch>") }
	got := artefacts{stdout: mask(out.Bytes()), dossiers: map[string]string{}}
	if data, err := os.ReadFile(filepath.Join(dir, "trace.jsonl")); err == nil {
		got.trace = mask(data)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "incidents", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		got.dossiers[filepath.Base(p)] = mask(data)
	}
	return got
}

// firedIn reports whether a text run shows class fired: its -metrics
// counter is above zero, or the job ended with it.
func firedIn(class fault.Class, stdout string) bool {
	counter := regexp.MustCompile(`counter\s+fault\.` + regexp.QuoteMeta(string(class)) + `\s+[1-9]`)
	return counter.MatchString(stdout) || strings.Contains(stdout, "injected "+string(class)+" ")
}

// TestDiskCrashNamesNoDirectory: what a run whose disk crashes prints —
// the report, or the error that ends it — names the store's files by
// their base names, so it reads the same wherever the store lives.
func TestDiskCrashNamesNoDirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two tuning jobs")
	}
	for _, asJSON := range []bool{false, true} {
		dir := t.TempDir()
		args := []string{"-workload", "IC", "-seed", "5", "-budget", "dataset", "-checkpoint",
			"-faults", "disk-crash=0.05", "-metrics", "-store", filepath.Join(dir, "s.db")}
		if asJSON {
			args = append(args, "-json")
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			out.Reset()
			printError(&out, err)
		}
		if !firedIn(fault.DiskCrash, out.String()) {
			t.Errorf("-json=%v: disk-crash never fired: %s", asJSON, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, dir) {
				t.Errorf("-json=%v printed the store's directory: %q", asJSON, line)
			}
		}
	}
}
