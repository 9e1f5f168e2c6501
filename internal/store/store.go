// Package store is the persistent database of §3.4: inference-tuning
// results keyed by architecture signature, so that a model structure
// already tuned for inference is never re-tuned ("avoids retuning
// architectures and parameters twice, with the cost of a small storage
// overhead"). The store is an in-memory index with optional durable
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

// ErrNotFound is returned by Get for missing entries.
var ErrNotFound = errors.New("store: entry not found")

// Store is a thread-safe historical result cache. The zero value is
// ready to use.
//
// A stored Config is never written to. It is copied once on the way in
// (Put, WriteBehind.Put) and read in place from then on: by get, by
// WriteBehind.Get and by compaction. Recovery hands the maps it decodes
// to put uncopied. Get and Entries still hand out copies.
//
// A stored checkpoint blob is the opposite: it is the slice its
// SaveCheckpoint caller handed over, and the key's next SaveCheckpoint
// hands it back to that caller, who writes the checkpoint after into
// it. So LoadCheckpoint copies it out, and compaction encodes it under
// walMu.
//
// An entry is keyed by its (Signature, Device) pair, the two fields
// apart: no key string is built to put, get or sort one, and
// ("a@b", "c") and ("a", "b@c") are two entries.
//
// Two locks: walMu orders mutations and mu guards the index and the
// checkpoint map. A mutation holds walMu from its WAL record's framing
// through write, fsync and ship to its in-memory apply, and takes mu
// only for that apply, so a read, which takes mu alone, never waits on
// the disk. Compaction runs under walMu and reads the index and the map
// without mu: only walMu holders write them. Lock order: walMu, then mu.
type Store struct {
	walMu sync.Mutex
	// mu guards the index, the checkpoint map and the hit/miss counters.
	mu sync.Mutex
	// idx holds the stored entries, in blocks a growing table finds
	// them in (index).
	idx    index
	hits   int
	misses int
	// checkpoints holds opaque job-progress blobs keyed by job, so a
	// crashed tuning run can resume from its last completed rung using
	// the same persistence as the historical database.
	checkpoints map[string]json.RawMessage
	// dur, when set by OpenDurable, journals every mutation write-ahead
	// (under walMu, before the in-memory apply) and gives Sync something
	// to do.
	dur *Durable
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Put inserts or replaces an entry. The store keeps a copy of e.Config,
// so the caller may go on using its map.
func (s *Store) Put(e Entry) error {
	e.Config = e.Config.Clone()
	return s.put(e)
}

// put is Put without the copy: the store takes e.Config over, and the
// caller must not write to it again.
func (s *Store) put(e Entry) error {
	if e.Signature == "" {
		return fmt.Errorf("store: entry with empty signature")
	}
	if e.Device == "" {
		return fmt.Errorf("store: entry with empty device")
	}
	one := [1]Entry{e}
	_, err := s.putBatch(one[:])
	return err
}

// putBatch puts valid entries in order, taking their Configs over. On a
// durable store they are one group commit: every entry's WAL record is
// written, the log is fsynced once, and only then are the entries
// applied. It returns how many entries, a prefix of es, the store now
// holds; on error it holds none of the rest.
func (s *Store) putBatch(es []Entry) (int, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	n, err := len(es), error(nil)
	if s.dur != nil {
		n, err = s.dur.appendPuts(es)
	}
	s.mu.Lock()
	for i := range es[:n] {
		s.idx.put(es[i])
	}
	s.mu.Unlock()
	return n, err
}

// Get looks up the cached result for an architecture on a device,
// recording the hit/miss statistics the overhead evaluation reports.
// The entry's Config is the caller's own copy.
func (s *Store) Get(signature, dev string) (Entry, error) {
	e, err := s.get(signature, dev)
	if err != nil {
		return Entry{}, fmt.Errorf("%w: %s@%s", err, signature, dev)
	}
	e.Config = e.Config.Clone()
	return e, nil
}

// get is Get without the copy and without naming the missing key: the
// entry's Config is the stored map, read-only to the caller, and a miss
// is the bare ErrNotFound.
func (s *Store) get(signature, dev string) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.idx.get(signature, dev)
	if p == nil {
		s.misses++
		return Entry{}, ErrNotFound
	}
	s.hits++
	return *p, nil
}

// hit counts a cache hit answered outside the index: a write-behind
// buffer's entry on its way to the store.
func (s *Store) hit() {
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
}

// Len reports the number of cached entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.n
}

// Stats reports cache hits and misses since creation (or load).
func (s *Store) Stats() (hits, misses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// Entries returns all entries in a deterministic order: by the bytes of
// the joined "signature@device" string, the shorter signature first
// where two read alike.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.idx.sorted()
	for i := range out {
		out[i].Config = out[i].Config.Clone()
	}
	return out
}

// SaveCheckpoint stores data as the blob under key, replacing any
// previous one, and takes data over: the store keeps the slice itself,
// so the caller must not touch it again. It hands back the key's
// previous blob (nil when the key had none), which the store no longer
// references, for the caller to reuse: a job encodes its next
// checkpoint into it. On error the store keeps nothing, and data stays
// the caller's.
func (s *Store) SaveCheckpoint(key string, data []byte) (prev []byte, err error) {
	if key == "" {
		return nil, errors.New("store: checkpoint with empty key")
	}
	if !json.Valid(data) {
		return nil, fmt.Errorf("store: checkpoint %q is not valid JSON", key)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.dur != nil {
		// The record borrows data: append has framed it before it
		// returns, and keeps nothing of the record.
		if err := s.dur.append(walRecord{Op: walOpCheckpoint, Key: key, Data: data}); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checkpoints == nil {
		s.checkpoints = make(map[string]json.RawMessage)
	}
	prev = s.checkpoints[key]
	s.checkpoints[key] = data
	return prev, nil
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
// absent). Only WAL replay calls it: a job that completes keeps its
// final checkpoint as a durable completion marker (DESIGN.md §4.9).
func (s *Store) ClearCheckpoint(key string) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.dur != nil {
		// Best effort: a failed log append here only means the clear may
		// be replayed as a no-op delete after a crash; the in-memory
		// clear (and the next compaction) still happens.
		s.dur.append(walRecord{Op: walOpClear, Key: key})
	}
	s.mu.Lock()
	delete(s.checkpoints, key)
	s.mu.Unlock()
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
// state. Its entries share the stored Config maps, which nothing writes
// to, and its checkpoints are the stored map, whose blobs the next
// SaveCheckpoint hands back to be overwritten: callers hold s.walMu
// until the document is encoded. Holding it, they read the index and
// the checkpoint map without mu; only the hit/miss counters, which
// reads move, are copied under it.
func (s *Store) snapshotFileLocked() storeFile {
	file := storeFile{Entries: s.idx.sorted(), Checkpoints: s.checkpoints}
	s.mu.Lock()
	hits, misses := s.hits, s.misses
	s.mu.Unlock()
	if hits != 0 || misses != 0 {
		file.Stats = &storeStats{Hits: hits, Misses: misses}
	}
	return file
}

// Sync makes everything the store has acknowledged safe against a
// process kill: nothing to do for an in-memory store, "sync the WAL and
// compact if due" for a durable one (OpenDurable).
func (s *Store) Sync() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
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
