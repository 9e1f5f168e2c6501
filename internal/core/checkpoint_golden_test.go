package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgetune/internal/fault"
	"edgetune/internal/store"
)

// TestCheckpointBytesGolden pins the checkpoint wire format: the bytes
// a seeded job stores after a mid-bracket rung and at a bracket
// boundary must equal the goldens in testdata: the bytes captured
// before tuneJob existed, less the resilience snapshot's two retired
// counters, "rateLimited":0 and "preempted":0. restore ignores those
// keys when an older build wrote them and reads a missing key as zero,
// so a store written by either build resumes under the other
// (TestCheckpointGoldenResumes).
// A deliberate format change bumps checkpointVersion and replaces the
// files in testdata with the bytes this test prints. The bytes are the
// same at every core count: helpers move when a training is evaluated,
// never what the job records.
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
	opts := goldenJob(store.New())
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

// goldenJob is the checkpointed job whose checkpoints the goldens are,
// on st.
func goldenJob(st *store.Store) Options {
	opts := chaosOptions(fault.Config{TrialCrash: 0.3, DroppedReply: 0.2})
	opts.Store = st
	opts.Checkpoint = true
	return opts
}

// TestCheckpointGoldenResumes: each golden checkpoint, as committed and
// as a build that still counted rate-limited and preempted submissions
// wrote it, resumes the job that stored it, which then recommends what
// an uninterrupted run recommends.
func TestCheckpointGoldenResumes(t *testing.T) {
	want, err := Tune(context.Background(), goldenJob(store.New()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rung0", "bracket-boundary"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "checkpoint_"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		older := bytes.Replace(golden, []byte(`"shed":0,`), []byte(`"shed":0,"rateLimited":0,"preempted":0,`), 1)
		if bytes.Equal(older, golden) {
			t.Fatalf("%s: no shed counter to splice the retired keys after", name)
		}
		for _, blob := range []struct {
			build string
			data  []byte
		}{{"this", golden}, {"older", older}} {
			t.Run(name+"/"+blob.build, func(t *testing.T) {
				var p tuneProgress
				if err := json.Unmarshal(blob.data, &p); err != nil {
					t.Fatal(err)
				}
				st := store.New()
				if _, err := st.SaveCheckpoint(p.Key, bytes.Clone(blob.data)); err != nil {
					t.Fatal(err)
				}
				got, err := Tune(context.Background(), goldenJob(st))
				if err != nil {
					t.Fatal(err)
				}
				if got.Resilience.ResumedRungs == 0 {
					t.Error("the job did not resume from the checkpoint")
				}
				if !reflect.DeepEqual(got.Recommendation, want.Recommendation) || !reflect.DeepEqual(got.BestConfig, want.BestConfig) {
					t.Errorf("resumed run recommends %+v with %v, an uninterrupted one %+v with %v",
						got.Recommendation, got.BestConfig, want.Recommendation, want.BestConfig)
				}
			})
		}
	}
}
