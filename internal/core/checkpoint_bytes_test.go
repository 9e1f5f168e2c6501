package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/search"
	"edgetune/internal/store"
	"edgetune/internal/testutil"
	"edgetune/internal/workload"
)

// flatProgress is tuneProgress as one struct with the trials a plain
// list, the shape checkpoints were marshalled from before the trial log
// existed: json.Marshal of it is the reference encoding of a checkpoint.
type flatProgress struct {
	Version        int                         `json:"version"`
	Key            string                      `json:"key"`
	Bracket        int                         `json:"bracket"`
	NextRung       int                         `json:"nextRung"`
	Pop            []member                    `json:"population,omitempty"`
	Trials         []TrialRecord               `json:"trials"`
	TrialsRun      int                         `json:"trialsRun"`
	Tuning         time.Duration               `json:"tuningNanos"`
	TuningEnergyKJ float64                     `json:"tuningEnergyKJ"`
	MaxAccuracy    float64                     `json:"maxAccuracy"`
	ReachedTarget  bool                        `json:"reachedTarget"`
	HasBest        bool                        `json:"hasBest"`
	BestScore      float64                     `json:"bestScore"`
	BestConfig     search.Config               `json:"bestConfig,omitempty"`
	BestAccuracy   float64                     `json:"bestAccuracy"`
	BestMeets      bool                        `json:"bestMeets"`
	Resilience     counters.ResilienceSnapshot `json:"resilience"`
	Sampler        *search.SamplerState        `json:"sampler,omitempty"`
}

func flatten(p tuneProgress) flatProgress {
	return flatProgress{
		p.Version, p.Key, p.Bracket, p.NextRung, p.Pop, p.Trials,
		p.TrialsRun, p.Tuning, p.TuningEnergyKJ, p.MaxAccuracy, p.ReachedTarget,
		p.HasBest, p.BestScore, p.BestConfig, p.BestAccuracy, p.BestMeets,
		p.Resilience, p.Sampler,
	}
}

// rungBlobs runs opts with Checkpoint on and returns the job's result
// and the checkpoint the store holds after each rung, in rung order.
// kill, when positive, ends the job after that many rungs.
func rungBlobs(t *testing.T, opts Options, kill int) (Result, [][]byte) {
	t.Helper()
	res, blobs, err := captureRungBlobs(opts, kill)
	if err != nil {
		t.Fatal(err)
	}
	return res, blobs
}

// captureRungBlobs is rungBlobs for any goroutine.
func captureRungBlobs(opts Options, kill int) (Result, [][]byte, error) {
	opts.Checkpoint = true
	if err := opts.normalise(); err != nil { // sets the store and what the key names
		return Result{}, nil, err
	}
	key := checkpointKey(opts)
	var blobs [][]byte
	opts.AfterRung = func(bracket, rung int) error {
		blob, ok := opts.Store.LoadCheckpoint(key)
		if !ok {
			return fmt.Errorf("no checkpoint after bracket %d rung %d", bracket, rung)
		}
		blobs = append(blobs, blob)
		if len(blobs) == kill {
			return errKilled
		}
		return nil
	}
	res, err := Tune(context.Background(), opts)
	if kill > 0 && errors.Is(err, errKilled) {
		err = nil
	} else if kill > 0 && err == nil {
		err = fmt.Errorf("the job outlived its kill after %d rungs", kill)
	}
	return res, blobs, err
}

// checkRungBlobs holds each blob to the reference encoding of the
// progress it decodes to, and that progress's trials to the first
// trials of the whole job: a checkpoint is the job's own trials, in
// order, encoded as json.Marshal encoded the plain list.
func checkRungBlobs(t *testing.T, whole Result, blobs [][]byte) {
	t.Helper()
	for i, blob := range blobs {
		var p tuneProgress
		if err := json.Unmarshal(blob, &p); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if p.TrialsRun != len(p.Trials) || len(p.Trials) > len(whole.Trials) ||
			!reflect.DeepEqual(p.Trials, whole.Trials[:len(p.Trials)]) {
			t.Fatalf("checkpoint %d holds %d trials (trialsRun %d), not the job's first ones", i, len(p.Trials), p.TrialsRun)
		}
		want, err := json.Marshal(flatten(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) {
			at := 0
			for at < min(len(blob), len(want)) && blob[at] == want[at] {
				at++
			}
			t.Fatalf("checkpoint %d (%d bytes) differs from the plain list's encoding (%d bytes) at byte %d",
				i, len(blob), len(want), at)
		}
	}
}

// TestCheckpointBytesAtEveryRung: after every rung of a default NLP job,
// of a fault-injected job, and of a job killed mid-bracket and resumed,
// the stored checkpoint is byte for byte json.Marshal of the job's
// progress with its trials a plain list. The goldens pin two rungs of
// one job; this holds every rung of every bracket, where the trial log
// is spliced between the encoded head and tail.
func TestCheckpointBytesAtEveryRung(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite skipped in -short mode")
	}
	t.Run("nlp-default", func(t *testing.T) {
		opts := Options{Workload: workload.MustNew("NLP", 3), SystemParams: true, InferenceAware: true, Seed: 3}
		res, blobs := rungBlobs(t, opts, 0)
		if len(blobs) != 3*8 {
			t.Fatalf("%d checkpoints, want one per rung of 3 brackets of 8", len(blobs))
		}
		checkRungBlobs(t, res, blobs)
	})
	t.Run("faults", func(t *testing.T) {
		res, blobs := rungBlobs(t, goldenJob(store.New()), 0)
		if res.Resilience.TotalFaults == 0 {
			t.Fatal("no fault fired")
		}
		checkRungBlobs(t, res, blobs)
	})
	t.Run("killed-and-resumed", func(t *testing.T) {
		st := store.New()
		opts := goldenJob(st)
		_, before := rungBlobs(t, opts, opts.Rungs+2) // bracket 1, after its rung 1
		res, after := rungBlobs(t, opts, 0)
		if res.Resilience.ResumedRungs != int64(opts.Rungs+2) {
			t.Fatalf("resumed %d rungs, want %d", res.Resilience.ResumedRungs, opts.Rungs+2)
		}
		checkRungBlobs(t, res, append(before, after...))
	})
}

// TestConcurrentCheckpointJobs: two checkpointed jobs side by side on
// one durable store, as a cluster shard runs its tenants' jobs, store
// after every rung exactly the bytes each stores when it runs alone.
// The pair builds its checkpoints in the storage the jobs that ran
// alone released to the free list. Only the first job tunes inference, so
// neither reads a result the other stored, and what each checkpoints is
// its own doing.
func TestConcurrentCheckpointJobs(t *testing.T) {
	tenants := []string{"tenant-a", "tenant-b"}
	job := func(st *store.Store, i int) Options {
		opts := smallOptions("NLP")
		opts.Store, opts.Tenant, opts.Seed = st, tenants[i], uint64(5+i)
		opts.InferenceAware = i == 0
		opts.InitialConfigs, opts.Rungs = 2, 2 // small enough for the race detector
		return opts
	}
	durable := func() *store.Store {
		d, err := store.OpenDurable(store.DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json")})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d.Store()
	}
	alone := make([][][]byte, 2)
	for i := range alone {
		_, alone[i] = rungBlobs(t, job(durable(), i), 0)
	}
	st := durable()
	side, errs := make([][][]byte, 2), make([]error, 2)
	var wg sync.WaitGroup
	for i := range side {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, side[i], errs[i] = captureRungBlobs(job(st, i), 0)
		}()
	}
	wg.Wait()
	for i := range side {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(side[i]) != len(alone[i]) {
			t.Fatalf("%s stored %d checkpoints side by side, %d alone", tenants[i], len(side[i]), len(alone[i]))
		}
		for r := range side[i] {
			if !bytes.Equal(side[i][r], alone[i][r]) {
				t.Fatalf("%s's checkpoint %d differs from the one it stores alone", tenants[i], r)
			}
		}
	}
}

// TestRungCheckpointAllocations is the allocation ledger's row for the
// job side of a rung checkpoint, which core's exported API cannot
// reach: a small NLP job on a durable store, after its first rung,
// checkpointing again with no trial folded since — head and tail
// encoded, the blob put together in the one the store handed back,
// saved, framed, appended and fsynced. The count must not move in
// either direction: a rise is an allocation the rung boundary gained,
// a fall means the declaration is lowered in the same change.
func TestRungCheckpointAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the job's behalf")
	}
	const want = 5
	d, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath:  filepath.Join(t.TempDir(), "store.json"),
		SnapshotEvery: -1, // a compaction would rewrite the whole store inside one run
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	opts := smallOptions("NLP")
	opts.Store, opts.Checkpoint = d.Store(), true
	if err := opts.normalise(); err != nil {
		t.Fatal(err)
	}
	var res Result
	recd := counters.NewResilienceOn(opts.Metrics)
	j := &tuneJob{opts: opts, res: &res, recd: recd, reg: recd.Registry()}
	defer j.finish()
	if err := j.setUp(); err != nil {
		t.Fatal(err)
	}
	j.openBracket(0)
	if err := j.runRung(context.Background(), 0, 0); err != nil { // checkpoints once
		t.Fatal(err)
	}
	var ckErr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := j.checkpoint(); err != nil {
			ckErr = err
		}
	})
	if ckErr != nil {
		t.Fatal(ckErr)
	}
	t.Logf("rung checkpoint: %v allocs/op", allocs)
	if allocs != want {
		t.Errorf("a rung checkpoint allocates %v times, declared %d", allocs, want)
	}
}
