package core

import (
	"encoding/json"
	"fmt"
	"time"

	"edgetune/internal/counters"
	"edgetune/internal/search"
)

// checkpointVersion guards the serialized layout; a mismatch discards
// the checkpoint rather than resuming from incompatible state.
// Version 2 added the sampler stream position, which convergence
// depends on — version-1 checkpoints are not resumed.
const checkpointVersion = 2

// member is one configuration of the bracket's population with its
// score at the last rung it was evaluated on.
type member struct {
	Config search.Config `json:"config"`
	Score  float64       `json:"score"`
}

// tuneProgress is a tuning job's live state and, marshalled as it
// stands, its checkpoint: the next unit of work, the surviving
// population, the accumulated result and the incumbent. The loop works
// on these fields directly (tuneJob embeds the struct). The JSON tags
// and the field order are the stored format. It is serialized into the
// historical store (and through it to disk when the store is persisted),
// so a killed job resumes without re-running finished trials.
type tuneProgress struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	// Bracket/NextRung locate the next unit of work. A bracket
	// boundary is encoded as (bracket+1, 0) with a nil population.
	Bracket  int      `json:"bracket"`
	NextRung int      `json:"nextRung"`
	Pop      []member `json:"population,omitempty"`

	Trials    []TrialRecord `json:"trials"`
	TrialsRun int           `json:"trialsRun"`
	// Tuning is the simulated time charged so far, and so the start of
	// the next trial on the tuner's timeline.
	Tuning         time.Duration `json:"tuningNanos"`
	TuningEnergyKJ float64       `json:"tuningEnergyKJ"`
	MaxAccuracy    float64       `json:"maxAccuracy"`
	ReachedTarget  bool          `json:"reachedTarget"`

	// The incumbent; the Best fields mean nothing until HasBest.
	HasBest      bool          `json:"hasBest"`
	BestScore    float64       `json:"bestScore"`
	BestConfig   search.Config `json:"bestConfig,omitempty"`
	BestAccuracy float64       `json:"bestAccuracy"`
	BestMeets    bool          `json:"bestMeets"`

	// Resilience and Sampler live in the registry and the sampler while
	// the job runs; checkpoint captures them, restore hands them back.
	Resilience counters.ResilienceSnapshot `json:"resilience"`

	// Sampler is the proposal stream's position (RNG state or sequence
	// cursor). Without it a resumed run re-seeds the sampler from
	// scratch and the next bracket's population diverges from the
	// uninterrupted run's — breaking crash/restart convergence.
	Sampler *search.SamplerState `json:"sampler,omitempty"`
}

// checkpointKey identifies a job's checkpoint slot: resuming is only
// valid when the job shape that produced the checkpoint matches and, on
// a store tenants share, the tenant does. A job without a tenant keeps
// the key earlier builds wrote.
func checkpointKey(o Options) string {
	key := fmt.Sprintf("tune/%s/%s/%s/%s/%s/eta%d/c%d/r%d/b%d/seed%d/sys%t/inf%t/acc%t",
		o.Workload.ID, o.Device.Profile.Name, o.Metric, o.BudgetKind, o.ModelAlgo,
		eta, o.InitialConfigs, o.Rungs, o.MaxBrackets, o.Seed,
		o.SystemParams, o.InferenceAware, o.AccuracyOnly)
	if o.Tenant != "" {
		key += "/tenant=" + o.Tenant
	}
	return key
}

// checkpoint stores the job's progress and syncs the store, so that on a
// durable store the checkpoint survives a process kill.
func (j *tuneJob) checkpoint() error {
	j.Resilience = j.recd.Snapshot()
	if rs, ok := j.sampler.(search.Resumable); ok {
		state := rs.SamplerState()
		j.Sampler = &state
	}
	if j.srv != nil {
		// The checkpoint must capture every completed inference result,
		// not leave some in the server's write-behind buffer.
		if err := j.srv.FlushWrites(); err != nil {
			return err
		}
	}
	data, err := json.Marshal(&j.tuneProgress)
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	if err := j.opts.Store.SaveCheckpoint(j.Key, data); err != nil {
		return err
	}
	if err := j.opts.Store.Sync(); err != nil {
		return fmt.Errorf("core: flush checkpoint: %w", err)
	}
	return nil
}

// restore resumes from the job's stored checkpoint, if there is one and
// it is compatible: the loop then skips the rungs a previous run already
// completed.
func (j *tuneJob) restore() {
	if !j.opts.Checkpoint {
		return
	}
	var p tuneProgress
	data, ok := j.opts.Store.LoadCheckpoint(j.Key)
	if !ok || json.Unmarshal(data, &p) != nil || p.Version != checkpointVersion || p.Key != j.Key {
		return
	}
	j.tuneProgress = p
	// Rebuild the sampler's model from the completed trials so the
	// resumed search continues informed.
	for _, tr := range j.Trials {
		if tr.Outcome != OutcomeFailed {
			j.sampler.Observe(search.Observation{Config: tr.Config, Score: tr.Score, Budget: tr.Alloc.Cost()})
		}
	}
	j.recd.Restore(j.Resilience)
	j.recd.AddResumedRungs(int64(j.Bracket*j.opts.Rungs + j.NextRung))
	// Restore the proposal stream AFTER replaying observations: the
	// resumed sampler must draw exactly what the uninterrupted run would
	// have drawn next.
	if rs, ok := j.sampler.(search.Resumable); ok && j.Sampler != nil {
		rs.RestoreSamplerState(*j.Sampler)
	}
}
