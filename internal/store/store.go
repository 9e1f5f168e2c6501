// Package store is the persistent database of §3.4: inference-tuning
// results keyed by architecture signature, so that a model structure
// already tuned for inference is never re-tuned ("avoids retuning
// architectures and parameters twice, with the cost of a small storage
// overhead"). The store is an in-memory map with optional JSON
// persistence.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"edgetune/internal/search"
)

// Entry is one cached inference-tuning outcome.
type Entry struct {
	// Signature identifies the architecture (workload + model
	// hyperparameter), per workload.Signature.
	Signature string `json:"signature"`
	// Device is the edge device the result was tuned for.
	Device string `json:"device"`
	// Config is the optimal inference configuration found.
	Config search.Config `json:"config"`
	// Throughput is samples/second at the optimal configuration.
	Throughput float64 `json:"throughput"`
	// EnergyPerSampleJ is joules per sample at the optimum.
	EnergyPerSampleJ float64 `json:"energyPerSampleJoules"`
	// LatencySeconds is the per-batch latency at the optimum.
	LatencySeconds float64 `json:"latencySeconds"`
	// Objective is the minimised inference objective value.
	Objective float64 `json:"objective"`
	// TrialsRun records how many inference trials produced this entry.
	TrialsRun int `json:"trialsRun"`
}

// key combines signature and device: the same architecture tuned for a
// different device is a different entry.
func (e Entry) key() string { return e.Signature + "@" + e.Device }

// ErrNotFound is returned by Get for missing entries.
var ErrNotFound = errors.New("store: entry not found")

// Store is a thread-safe historical result cache. The zero value is
// ready to use.
type Store struct {
	mu      sync.Mutex
	entries map[string]Entry
	hits    int
	misses  int
	// checkpoints holds opaque job-progress blobs keyed by job, so a
	// crashed tuning run can resume from its last completed rung using
	// the same persistence as the historical database.
	checkpoints map[string]json.RawMessage
	// dur, when set by OpenDurable, journals every mutation write-ahead
	// (under mu, before the in-memory apply) and gives Sync something to do.
	dur *Durable
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Put inserts or replaces an entry.
func (s *Store) Put(e Entry) error {
	if e.Signature == "" {
		return fmt.Errorf("store: entry with empty signature")
	}
	if e.Device == "" {
		return fmt.Errorf("store: entry with empty device")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Config = e.Config.Clone()
	if s.dur != nil {
		if err := s.dur.appendLocked(walRecord{Op: walOpPut, Entry: &e}); err != nil {
			return err
		}
	}
	if s.entries == nil {
		s.entries = make(map[string]Entry)
	}
	s.entries[e.key()] = e
	return nil
}

// Get looks up the cached result for an architecture on a device,
// recording the hit/miss statistics the overhead evaluation reports.
func (s *Store) Get(signature, dev string) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[signature+"@"+dev]
	if !ok {
		s.misses++
		return Entry{}, fmt.Errorf("%w: %s@%s", ErrNotFound, signature, dev)
	}
	s.hits++
	e.Config = e.Config.Clone()
	return e, nil
}

// Len reports the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats reports cache hits and misses since creation (or load).
func (s *Store) Stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Entries returns all entries sorted by key (deterministic order).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		e.Config = e.Config.Clone()
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// SaveCheckpoint stores an opaque progress blob under key, replacing
// any previous one.
func (s *Store) SaveCheckpoint(key string, data []byte) error {
	if key == "" {
		return errors.New("store: checkpoint with empty key")
	}
	if !json.Valid(data) {
		return fmt.Errorf("store: checkpoint %q is not valid JSON", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		// The record borrows data: appendLocked has encoded it into its
		// frame before it returns, and keeps nothing of the record.
		if err := s.dur.appendLocked(walRecord{Op: walOpCheckpoint, Key: key, Data: data}); err != nil {
			return err
		}
	}
	if s.checkpoints == nil {
		s.checkpoints = make(map[string]json.RawMessage)
	}
	s.checkpoints[key] = append(json.RawMessage(nil), data...)
	return nil
}

// LoadCheckpoint returns the blob stored under key, if any.
func (s *Store) LoadCheckpoint(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.checkpoints[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// ClearCheckpoint removes the blob stored under key (a no-op when
// absent), called when the checkpointed job completes.
func (s *Store) ClearCheckpoint(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil {
		// Best effort: a failed log append here only means the clear may
		// be replayed as a no-op delete after a crash; the in-memory
		// clear (and the next compaction) still happens.
		s.dur.appendLocked(walRecord{Op: walOpClear, Key: key})
	}
	delete(s.checkpoints, key)
}

// CheckpointKeys lists stored checkpoint keys in sorted order.
func (s *Store) CheckpointKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.checkpoints))
	for k := range s.checkpoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// storeFile is the on-disk representation: entries plus in-flight job
// checkpoints and cache statistics. parseStoreFile also accepts the
// legacy format, a bare entry array.
type storeFile struct {
	Entries     []Entry                    `json:"entries"`
	Checkpoints map[string]json.RawMessage `json:"checkpoints,omitempty"`
	Stats       *storeStats                `json:"stats,omitempty"`
}

// storeStats persists the cache hit/miss counters across restarts.
type storeStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// snapshotFileLocked builds the on-disk document from the current
// state. Callers must hold s.mu.
func (s *Store) snapshotFileLocked() storeFile {
	file := storeFile{Entries: make([]Entry, 0, len(s.entries))}
	for _, e := range s.entries {
		e.Config = e.Config.Clone()
		file.Entries = append(file.Entries, e)
	}
	sort.Slice(file.Entries, func(i, j int) bool { return file.Entries[i].key() < file.Entries[j].key() })
	if len(s.checkpoints) > 0 {
		file.Checkpoints = make(map[string]json.RawMessage, len(s.checkpoints))
		for k, v := range s.checkpoints {
			file.Checkpoints[k] = append(json.RawMessage(nil), v...)
		}
	}
	if s.hits != 0 || s.misses != 0 {
		file.Stats = &storeStats{Hits: s.hits, Misses: s.misses}
	}
	return file
}

// Sync makes everything the store has acknowledged safe against a
// process kill: nothing to do for an in-memory store, "sync the WAL and
// compact if due" for a durable one (OpenDurable).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return nil
	}
	return s.dur.persistLocked()
}

// parseStoreFile decodes an on-disk store document, accepting both the
// current {entries, checkpoints, stats} format and the legacy
// bare-array format.
func parseStoreFile(data []byte) (storeFile, error) {
	var file storeFile
	if err := json.Unmarshal(data, &file); err != nil {
		// Legacy format: a bare entry array.
		if legacyErr := json.Unmarshal(data, &file.Entries); legacyErr != nil {
			return storeFile{}, err
		}
	}
	return file, nil
}
