package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edgetune/internal/fault"
	"edgetune/internal/store"
)

// TestCheckpointBytesGolden pins the checkpoint wire format: the bytes
// a seeded job stores after a mid-bracket rung and at a bracket
// boundary must equal goldens captured at the commit before tuneJob
// existed (PR 15), so a store written by either build resumes under the
// other. A deliberate format change bumps checkpointVersion and replaces
// the files in testdata with the bytes this test prints. The bytes are
// the same at every core count: helpers move when a training is
// evaluated, never what the job records.
func TestCheckpointBytesGolden(t *testing.T) {
	for _, kill := range []struct {
		name          string
		bracket, rung int
	}{
		{"rung0", 0, 0},
		{"bracket-boundary", 0, 3},
	} {
		kill := kill
		t.Run(kill.name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprint("procs=", procs), func(t *testing.T) { checkpointBytesGolden(t, kill.name, kill.bracket, kill.rung, procs) })
			}
		})
	}
}

func checkpointBytesGolden(t *testing.T, name string, killBracket, killRung, procs int) {
	atProcs(t, procs)
	opts := chaosOptions(fault.Config{TrialCrash: 0.3, DroppedReply: 0.2})
	opts.Store = store.New()
	opts.Checkpoint = true
	opts.AfterRung = func(bracket, rung int) error {
		if bracket == killBracket && rung == killRung {
			return errKilled
		}
		return nil
	}
	if _, err := Tune(context.Background(), opts); !errors.Is(err, errKilled) {
		t.Fatalf("kill hook not honoured: %v", err)
	}
	keys := opts.Store.CheckpointKeys()
	if len(keys) != 1 {
		t.Fatalf("checkpoint keys = %v", keys)
	}
	got, _ := opts.Store.LoadCheckpoint(keys[0])
	path := filepath.Join("testdata", "checkpoint_"+name+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("checkpoint bytes differ from %s:\n got %s\nwant %s", path, got, want)
	}
}
