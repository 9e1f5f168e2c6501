package edgetune

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"edgetune/internal/store"
)

// crashJob is the seeded job both halves of the crash/restart harness
// run: small enough to finish fast, checkpointed so a killed run
// resumes at rung granularity.
func crashJob(seed uint64, storePath string, killAfter int) Job {
	return Job{
		Workload:              "IC",
		Configs:               3,
		Rungs:                 3,
		Brackets:              2,
		InferenceTrials:       8,
		Seed:                  seed,
		Checkpoint:            true,
		StorePath:             storePath,
		StoreKillAfterAppends: killAfter,
	}
}

// TestCrashChildProcess is the re-exec target of the crash harness: it
// only runs when the parent set EDGETUNE_CRASH_STORE, tunes the seeded
// job with the kill switch armed, and — if the process survives to the
// end — prints the outcome digest for the parent to compare. A run
// that hits the kill point dies with store.KillExitCode mid-bracket,
// exactly like a power cut after an acknowledged fsync.
func TestCrashChildProcess(t *testing.T) {
	storePath := os.Getenv("EDGETUNE_CRASH_STORE")
	if storePath == "" {
		t.Skip("crash-harness child; run via TestCrashRestartRecovery")
	}
	killAfter, _ := strconv.Atoi(os.Getenv("EDGETUNE_CRASH_KILL"))
	seed, _ := strconv.ParseUint(os.Getenv("EDGETUNE_CRASH_SEED"), 10, 64)
	rep, err := Tune(context.Background(), crashJob(seed, storePath, killAfter))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("CRASH_DIGEST %s\n", rep.Digest())
}

// TestCrashRestartRecovery kills the tuner at seeded points
// mid-bracket (process death right after an acknowledged WAL append),
// restarts it from the on-disk store until a run survives, and asserts
// the survivor reaches the same recommendation digest as an
// uninterrupted same-seed run — the paper's "never re-tune twice"
// store, now proven against power loss, not just injected logical
// faults.
func TestCrashRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary repeatedly")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42

	// The ground truth: one uninterrupted run, in-process.
	baseline, err := Tune(context.Background(),
		crashJob(seed, filepath.Join(t.TempDir(), "baseline.json"), 0))
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Digest()

	for _, killAfter := range []int{2, 7} {
		killAfter := killAfter
		t.Run(fmt.Sprintf("kill-after-%d", killAfter), func(t *testing.T) {
			dir := t.TempDir()
			storePath := filepath.Join(dir, "history.json")
			var out []byte
			restarts := 0
			for {
				cmd := exec.Command(exe, "-test.run=^TestCrashChildProcess$", "-test.v")
				cmd.Env = append(os.Environ(),
					"EDGETUNE_CRASH_STORE="+storePath,
					"EDGETUNE_CRASH_KILL="+strconv.Itoa(killAfter),
					"EDGETUNE_CRASH_SEED="+strconv.FormatUint(seed, 10),
				)
				var runErr error
				out, runErr = cmd.CombinedOutput()
				if runErr == nil {
					break
				}
				ee, ok := runErr.(*exec.ExitError)
				if !ok || ee.ExitCode() != store.KillExitCode {
					t.Fatalf("child died unexpectedly: %v\n%s", runErr, out)
				}
				restarts++
				if restarts > 100 {
					t.Fatalf("no convergence after %d kill/restart cycles", restarts)
				}
			}
			if restarts == 0 {
				t.Fatalf("kill switch at %d appends never fired — the harness proved nothing", killAfter)
			}
			var got string
			for _, line := range strings.Split(string(out), "\n") {
				if rest, ok := strings.CutPrefix(line, "CRASH_DIGEST "); ok {
					got = strings.TrimSpace(rest)
				}
			}
			if got == "" {
				t.Fatalf("surviving child printed no digest:\n%s", out)
			}
			if got != want {
				t.Errorf("after %d crashes the digest is %s, want %s (uninterrupted)", restarts, got, want)
			}

			// The recovered store must also pass an integrity scrub.
			rep, err := store.Scrub(storePath)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean {
				t.Errorf("store not clean after recovery: %+v", rep)
			}
			t.Logf("converged after %d kill/restart cycles", restarts)
		})
	}
}
