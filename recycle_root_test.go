package edgetune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgetune/internal/trial"
)

// recycleJob is the job that runs on a split another job released:
// small, and of the workload of the job cancelled before it.
func recycleJob() Job {
	job := quickJob()
	job.Seed = 11
	return job
}

// TestRecycledSplitChild is the re-exec target of
// TestCancelledJobReleasesItsSplit: it only runs when the parent set
// EDGETUNE_RECYCLE_CHILD, tunes recycleJob in a process where no split
// was ever released, and prints the marshalled report.
func TestRecycledSplitChild(t *testing.T) {
	if os.Getenv("EDGETUNE_RECYCLE_CHILD") == "" {
		t.Skip("recycling child; run via TestCancelledJobReleasesItsSplit")
	}
	rep, err := Tune(context.Background(), recycleJob())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("RECYCLE_REPORT %s\n", data)
}

// TestCancelledJobReleasesItsSplit: a job cancelled mid-rung, while
// helpers train on its split, releases the split only once they have
// stopped (the race detector sees a helper that still reads it as the
// next job regenerates into it), and the next job of the workload,
// which regenerates into that split, reports byte for byte what it
// reports in a fresh process.
func TestCancelledJobReleasesItsSplit(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestRecycledSplitChild$", "-test.v")
	cmd.Env = append(os.Environ(), "EDGETUNE_RECYCLE_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var want []byte
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "RECYCLE_REPORT "); ok {
			want = []byte(rest)
		}
	}
	if want == nil {
		t.Fatalf("child printed no report:\n%s", out)
	}

	const procs = 4 // helpers train beside the job on any machine
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan struct{})
	go func() {
		defer close(cancelled)
		for trial.IdleHelpers() == procs-1 {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	_, err = Tune(ctx, Job{Workload: recycleJob().Workload, Seed: 5})
	<-cancelled
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("the cancelled job returned %v, want context.Canceled: it finished before a helper trained", err)
	}
	if idle := trial.IdleHelpers(); idle != procs-1 {
		t.Fatalf("%d helpers idle after the cancelled job returned, want %d", idle, procs-1)
	}

	rep, err := Tune(context.Background(), recycleJob())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the job on a recycled split reports\n%s\nin a fresh process\n%s", got, want)
	}
}
