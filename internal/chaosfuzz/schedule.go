// Package chaosfuzz is a seeded explorer over the system's failure
// space, in the style of FoundationDB's simulation testing: instead of
// hand-written chaos scenarios it generates fault *schedules* — typed
// sequences of (class, site, trigger point, intensity) drawn from the
// full fault catalog — runs each through a real single-node or cluster
// tuning job, and evaluates a registry of system-wide invariants after
// every run: no lost durably-acked writes, same-seed digest
// convergence wherever the design promises it, budget conservation,
// SLO counter consistency, and zero goroutine leaks. When an invariant breaks, a
// delta-debugging shrinker minimizes the schedule and the fuzzer emits
// a replayable repro artefact: the minimal schedule plus seed, and a
// flight-recorder dossier of the violating run.
package chaosfuzz

import (
	"encoding/json"
	"fmt"
	"os"

	"edgetune/internal/fault"
)

// Execution modes a schedule targets.
const (
	// ModeSingle runs the schedule through a single-node tuning job on
	// a crash-consistent durable store (the disk classes live here).
	ModeSingle = "single"
	// ModeCluster runs it through a two-shard cluster with WAL-shipped
	// followers (the cluster classes live here; disk classes do not —
	// cluster replicas journal through the plain filesystem).
	ModeCluster = "cluster"
)

// Schedule is one machine-generated chaos scenario: the seed that
// makes the run (and every fault decision in it) deterministic, the
// execution mode, and the exact fault events to inject.
type Schedule struct {
	Seed   uint64        `json:"seed"`
	Mode   string        `json:"mode"`
	Events []fault.Event `json:"events"`
}

// Validate checks the schedule's mode, every event (Event.Validate goes
// through the same fault.CheckProbs/CheckNonNegative helpers the CLI's
// -faults check uses), and the mode/class routing through the scope rule
// that check also applies, fault.Class.Scope: cluster classes need a
// cluster, disk classes need the single-node durable store.
func (s Schedule) Validate() error {
	if s.Mode != ModeSingle && s.Mode != ModeCluster {
		return fmt.Errorf("chaosfuzz: mode %q must be %q or %q", s.Mode, ModeSingle, ModeCluster)
	}
	for i, ev := range s.Events {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("chaosfuzz: event %d: %w", i, err)
		}
		// Single mode runs on a durable store, cluster mode on a cluster.
		if ev.Class.Scope(s.Mode == ModeSingle, s.Mode == ModeCluster) != nil {
			if s.Mode == ModeSingle {
				return fmt.Errorf("chaosfuzz: event %d: %s has no decision point in single mode", i, ev.Class)
			}
			return fmt.Errorf("chaosfuzz: event %d: %s has no decision point in cluster mode (replica stores use the plain filesystem)", i, ev.Class)
		}
	}
	return nil
}

// hasDiskEvents reports whether any event targets a disk class —
// schedules that may legitimately leave torn bytes behind for recovery
// to salvage.
func (s Schedule) hasDiskEvents() bool {
	for _, ev := range s.Events {
		if ev.Class.Disk() {
			return true
		}
	}
	return false
}

// failoverOnly reports whether every event is a cluster fabric class —
// the schedules for which the design promises same-seed outcome-digest
// convergence with an unfaulted twin (failover resumes from replicated
// checkpoints and converges; partition/lag only perturb shipping).
func (s Schedule) failoverOnly() bool {
	if len(s.Events) == 0 {
		return false
	}
	for _, ev := range s.Events {
		if !ev.Class.Cluster() {
			return false
		}
	}
	return true
}

// plans splits the schedule into the two injectors that consult it:
// the job-level plan (trial, device, store, and disk classes — the
// single-node runner shares one injector config between the tuner and
// its fault filesystem) and the cluster fabric plan (shard kills and
// replication-link faults).
func (s Schedule) plans() (job, cluster *fault.Plan, err error) {
	var jobEvents, clusterEvents []fault.Event
	for _, ev := range s.Events {
		if ev.Class.Cluster() {
			clusterEvents = append(clusterEvents, ev)
		} else {
			jobEvents = append(jobEvents, ev)
		}
	}
	if job, err = fault.NewPlan(jobEvents); err != nil {
		return nil, nil, err
	}
	if cluster, err = fault.NewPlan(clusterEvents); err != nil {
		return nil, nil, err
	}
	return job, cluster, nil
}

// ReproSchema versions the repro artefact layout. Schema 2 keys a disk
// event by the frame written (fault.FS); schema 1 keyed it by the Nth
// operation on the filesystem, which names no frame, so a schema-1
// artefact loads only when it holds no disk event.
const ReproSchema = 2

// Repro is the replayable artefact the fuzzer emits for a finding: the
// minimal schedule plus the invariant it breaks. Corpus entries use
// the same format with an empty Invariant — schedules the system must
// survive cleanly.
type Repro struct {
	Schema    int      `json:"schema"`
	Invariant string   `json:"invariant,omitempty"`
	Detail    string   `json:"detail,omitempty"`
	Schedule  Schedule `json:"schedule"`
}

// MarshalRepro renders r as deterministic indented JSON with a
// trailing newline, defaulting the schema version.
func MarshalRepro(r Repro) ([]byte, error) {
	if r.Schema == 0 {
		r.Schema = ReproSchema
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteRepro writes r as deterministic indented JSON.
func WriteRepro(path string, r Repro) error {
	data, err := MarshalRepro(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadRepro loads and validates a repro artefact.
func ReadRepro(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("chaosfuzz: parse %s: %w", path, err)
	}
	if r.Schema != ReproSchema && r.Schema != 1 {
		return r, fmt.Errorf("chaosfuzz: %s: unsupported repro schema %d (want %d)", path, r.Schema, ReproSchema)
	}
	if r.Schema == 1 && r.Schedule.hasDiskEvents() {
		return r, fmt.Errorf("chaosfuzz: %s: schema 1 keys its disk events by operation number, which no longer names a decision; re-express them by frame (schema %d)", path, ReproSchema)
	}
	if err := r.Schedule.Validate(); err != nil {
		return r, fmt.Errorf("chaosfuzz: %s: %w", path, err)
	}
	return r, nil
}
