package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
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
//
// The fields before and after Trials sit in two embedded structs, whose
// fields encoding/json writes and reads as tuneProgress's own: a
// checkpoint encodes those two and splices the trial log between them
// (see checkpoint).
type tuneProgress struct {
	progressHead
	Trials []TrialRecord `json:"trials"`
	progressTail
}

// progressHead is the part of tuneProgress before Trials.
type progressHead struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	// Bracket/NextRung locate the next unit of work. A bracket
	// boundary is encoded as (bracket+1, 0) with a nil population.
	Bracket  int      `json:"bracket"`
	NextRung int      `json:"nextRung"`
	Pop      []member `json:"population,omitempty"`
}

// progressTail is the part of tuneProgress after Trials.
type progressTail struct {
	TrialsRun int `json:"trialsRun"`
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

// ckStorage is what a job builds its checkpoints in: the trial log, the
// buffer the head and tail are encoded into, and a spare blob. It
// outlives the job on ckFree, so the next job's checkpoints reuse it.
type ckStorage struct {
	// log is the JSON of the job's first logged trials, comma-separated:
	// a folded TrialRecord never changes, so each is encoded once.
	log    []byte
	logged int
	// part holds the encoded head, then the encoded tail, each with
	// Encode's newline; enc writes into it.
	part bytes.Buffer
	enc  *json.Encoder
	// blob is the buffer the next checkpoint is written into: one the
	// store handed back, never one it holds.
	blob []byte
}

// ckFree keeps the storage of finished jobs for the next ones. It is a
// plain list rather than a sync.Pool: a pool is emptied by the
// collector, and a job that then regrows its storage would allocate an
// amount that changes from run to run.
var ckFree struct {
	sync.Mutex
	list []*ckStorage
}

// ckFreeMax bounds ckFree: jobs that run side by side each hold one.
const ckFreeMax = 4

// takeCkStorage returns checkpoint storage, a finished job's if there
// is one.
func takeCkStorage() *ckStorage {
	ckFree.Lock()
	defer ckFree.Unlock()
	if n := len(ckFree.list); n > 0 {
		ck := ckFree.list[n-1]
		ckFree.list[n-1] = nil
		ckFree.list = ckFree.list[:n-1]
		return ck
	}
	ck := &ckStorage{}
	ck.enc = json.NewEncoder(&ck.part)
	return ck
}

// release empties ck and keeps it for the next job, unless ckFreeMax
// storages are already kept.
func (ck *ckStorage) release() {
	ck.log, ck.logged = ck.log[:0], 0
	ck.part.Reset()
	ckFree.Lock()
	defer ckFree.Unlock()
	if len(ckFree.list) < ckFreeMax {
		ckFree.list = append(ckFree.list, ck)
	}
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
//
// The blob is json.Marshal of tuneProgress, put together from parts: the
// encoded head without its closing brace, the trial log in brackets, and
// the encoded tail without its opening brace. The log gains only the
// trials folded since the last checkpoint. The store keeps the blob and
// hands back the one it held before, which the next checkpoint is
// written into.
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
	if j.ck == nil {
		j.ck = takeCkStorage()
	}
	ck := j.ck
	for ; ck.logged < len(j.Trials); ck.logged++ {
		ck.part.Reset()
		if err := ck.enc.Encode(&j.Trials[ck.logged]); err != nil {
			return fmt.Errorf("core: marshal checkpoint: %w", err)
		}
		rec := ck.part.Bytes()[:ck.part.Len()-1]
		if cap(ck.log)-len(ck.log) <= len(rec) {
			// Room for every trial the schedule has still to fold, at
			// this one's size: the log grows once, not by append's steps.
			ck.log = slices.Grow(ck.log, (len(rec)+1)*max(j.scheduled-ck.logged, 1))
		}
		if ck.logged > 0 {
			ck.log = append(ck.log, ',')
		}
		ck.log = append(ck.log, rec...)
	}
	ck.part.Reset()
	if err := ck.enc.Encode(&j.progressHead); err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	headEnd := ck.part.Len() - 2 // the closing brace and Encode's newline
	if err := ck.enc.Encode(&j.progressTail); err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	part := ck.part.Bytes()
	head, tail := part[:headEnd], part[headEnd+3:len(part)-1] // the tail without its opening brace

	const trialsKey = `,"trials":`
	size := len(head) + len(trialsKey) + len(ck.log) + len("[],") + len(tail)
	data := ck.blob[:0]
	if cap(data) < size {
		data = make([]byte, 0, j.ckCap(size))
	}
	// A rung folded at least one trial, so Trials is never nil here,
	// and encodes as a list.
	data = append(append(data, head...), trialsKey...)
	data = append(append(append(data, '['), ck.log...), ']')
	data = append(append(data, ','), tail...)
	prev, err := j.opts.Store.SaveCheckpoint(j.Key, data)
	if err != nil {
		ck.blob = data
		return err
	}
	ck.blob = prev
	if err := j.opts.Store.Sync(); err != nil {
		return fmt.Errorf("core: flush checkpoint: %w", err)
	}
	return nil
}

// ckCap is the capacity a checkpoint blob of size bytes is made with:
// room for the trials the schedule has still to fold, at the log's
// bytes per trial so far, plus a sixteenth. The store keeps each job's
// last blob, so a blob made for an early rung serves the rest of the
// job without regrowing.
func (j *tuneJob) ckCap(size int) int {
	if n := j.ck.logged; n > 0 && j.scheduled > n {
		size += (j.scheduled - n) * len(j.ck.log) / n
	}
	return size + size/16
}

// restore resumes from the job's stored checkpoint, if there is one and
// it is compatible: the loop then skips the rungs a previous run already
// completed. A checkpoint that does not parse, or is not this job's
// progress at a point of its schedule (see resumable), is ignored and
// the job starts fresh.
func (j *tuneJob) restore() {
	if !j.opts.Checkpoint {
		return
	}
	var p tuneProgress
	data, ok := j.opts.Store.LoadCheckpoint(j.Key)
	if !ok || json.Unmarshal(data, &p) != nil || !j.resumable(&p) {
		return
	}
	j.tuneProgress = p
	j.Trials = slices.Grow(j.Trials, max(j.scheduled-len(j.Trials), 0))
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

// resumable reports whether p is a state this job's loop writes: its
// version and key; a position after 1 to MaxBrackets×Rungs completed
// rungs, with NextRung in [0, Rungs); no population at a bracket
// boundary (NextRung 0) and otherwise as many members as rung NextRung
// trains; member and incumbent configurations with a value in the domain
// of every parameter of the job's space; and no negative counter.
func (j *tuneJob) resumable(p *tuneProgress) bool {
	o := j.opts
	done := p.Bracket*o.Rungs + p.NextRung
	if p.Version != checkpointVersion || p.Key != j.Key || p.Bracket < 0 || p.Bracket > o.MaxBrackets ||
		p.NextRung < 0 || p.NextRung >= o.Rungs || done < 1 || done > o.MaxBrackets*o.Rungs ||
		(p.NextRung == 0) != (p.Pop == nil) || p.Resilience.Negative() {
		return false
	}
	if p.Pop != nil && len(p.Pop) != o.popSize(p.NextRung) || p.HasBest && !j.inSpace(p.BestConfig) {
		return false
	}
	for _, m := range p.Pop {
		if !j.inSpace(m.Config) {
			return false
		}
	}
	return true
}

// popSize is how many members rung trains: InitialConfigs, halved per
// rung before it, and never fewer than one.
func (o Options) popSize(rung int) int {
	size := o.InitialConfigs
	for range rung {
		size = max(size/eta, 1)
	}
	return size
}

// scheduledTrials is how many trials the job's whole schedule folds:
// every rung's population in every bracket.
func (o Options) scheduledTrials() int {
	n := 0
	for rung := range o.Rungs {
		n += o.popSize(rung)
	}
	return n * o.MaxBrackets
}

// inSpace reports whether cfg holds a value in the domain of every
// parameter of the job's space.
func (j *tuneJob) inSpace(cfg search.Config) bool {
	for _, param := range j.space.Params() {
		if v, ok := cfg[param.Name]; !ok || !param.Contains(v) {
			return false
		}
	}
	return true
}
