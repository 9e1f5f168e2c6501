package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edgetune/internal/search"
)

func entry(sig, dev string) Entry {
	return Entry{
		Signature:        sig,
		Device:           dev,
		Config:           search.Config{"infer_batch": 8, "cores": 2},
		Throughput:       42,
		EnergyPerSampleJ: 0.5,
		LatencySeconds:   0.19,
		Objective:        0.0119,
		TrialsRun:        12,
	}
}

// openSnapshot opens path the one way a store file is opened —
// OpenDurable, to which a plain snapshot document with no log beside it
// is the first snapshot — and Close writes that document back: together
// they are how these tests read and write the snapshot format.
func openSnapshot(t *testing.T, path string) *Durable {
	t.Helper()
	d, err := OpenDurable(DurableOptions{SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestPutGet(t *testing.T) {
	s := New()
	if err := s.Put(entry("IC/layers=18", "i7")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("IC/layers=18", "i7")
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput != 42 {
		t.Errorf("Throughput = %v, want 42", got.Throughput)
	}
	if _, err := s.Get("IC/layers=50", "i7"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing entry error = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("IC/layers=18", "rpi3b+"); !errors.Is(err, ErrNotFound) {
		t.Error("same signature on another device must miss")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Store
	if err := s.Put(entry("a", "d")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Error("zero-value store broken")
	}
}

func TestPutValidation(t *testing.T) {
	s := New()
	if err := s.Put(Entry{Device: "i7"}); err == nil {
		t.Error("empty signature accepted")
	}
	if err := s.Put(Entry{Signature: "x"}); err == nil {
		t.Error("empty device accepted")
	}
}

func TestHitMissStats(t *testing.T) {
	s := New()
	_ = s.Put(entry("a", "d"))
	_, _ = s.Get("a", "d")
	_, _ = s.Get("a", "d")
	_, _ = s.Get("b", "d")
	hits, misses := s.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2/1", hits, misses)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	_ = s.Put(entry("a", "d"))
	got, _ := s.Get("a", "d")
	got.Config["infer_batch"] = 999
	again, _ := s.Get("a", "d")
	if again.Config["infer_batch"] != 8 {
		t.Error("Get leaks shared config storage")
	}
}

func TestPutCopiesConfig(t *testing.T) {
	s := New()
	e := entry("a", "d")
	_ = s.Put(e)
	e.Config["infer_batch"] = 999
	got, _ := s.Get("a", "d")
	if got.Config["infer_batch"] != 8 {
		t.Error("Put stored caller's map by reference")
	}
}

func TestEntriesSorted(t *testing.T) {
	s := New()
	_ = s.Put(entry("z", "d"))
	_ = s.Put(entry("a", "d"))
	_ = s.Put(entry("a", "c"))
	es := s.Entries()
	if len(es) != 3 {
		t.Fatalf("Len = %d, want 3", len(es))
	}
	if es[0].Device != "c" || es[1].Signature != "a" || es[2].Signature != "z" {
		t.Errorf("entries not sorted: %v", es)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	d := openSnapshot(t, path)
	_ = d.Store().Put(entry("IC/layers=18", "i7"))
	_ = d.Store().Put(entry("OD/dropout=0.3", "rpi3b+"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openSnapshot(t, path)
	if rr := reopened.Recovery(); rr.SnapshotSource != "snapshot" || rr.RecordsReplayed != 0 {
		t.Fatalf("Close left more than the snapshot document behind: %+v", rr)
	}
	loaded := reopened.Store()
	if loaded.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", loaded.Len())
	}
	got, err := loaded.Get("IC/layers=18", "i7")
	if err != nil {
		t.Fatal(err)
	}
	if got.Config["cores"] != 2 || got.Objective != 0.0119 {
		t.Errorf("round-trip mangled entry: %+v", got)
	}
}

// TestLoadErrors: no snapshot file a crash or an older build can leave
// behind fails the open — each is salvaged and says so in the report.
func TestLoadErrors(t *testing.T) {
	missing := openSnapshot(t, filepath.Join(t.TempDir(), "missing.json"))
	if rr := missing.Recovery(); rr.SnapshotSource != "none" || missing.Store().Len() != 0 {
		t.Errorf("missing file: %+v, %d entries; want an empty store from no snapshot", rr, missing.Store().Len())
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := openSnapshot(t, bad)
	if rr := corrupt.Recovery(); !rr.SnapshotQuarantined || corrupt.Store().Len() != 0 {
		t.Errorf("corrupt file: %+v, %d entries; want it quarantined", rr, corrupt.Store().Len())
	}
	if data, err := os.ReadFile(bad + ".quarantine"); err != nil || string(data) != "{not json" {
		t.Errorf("corrupt file not preserved as evidence: %q, %v", data, err)
	}
	// Structurally valid JSON with an invalid entry.
	invalid := filepath.Join(t.TempDir(), "invalid.json")
	if err := os.WriteFile(invalid, []byte(`[{"signature":""}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	skipped := openSnapshot(t, invalid)
	if rr := skipped.Recovery(); rr.RecordsQuarantined != 1 || skipped.Store().Len() != 0 {
		t.Errorf("invalid entry: %+v, %d entries; want it counted and skipped", rr, skipped.Store().Len())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	d := openSnapshot(t, path)
	s := d.Store()
	if err := s.SaveCheckpoint("", []byte(`{}`)); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.SaveCheckpoint("job", []byte(`{broken`)); err == nil {
		t.Error("invalid JSON accepted")
	}
	if _, ok := s.LoadCheckpoint("job"); ok {
		t.Error("missing checkpoint found")
	}
	if err := s.SaveCheckpoint("job", []byte(`{"rung":2}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.LoadCheckpoint("job")
	if !ok || string(got) != `{"rung":2}` {
		t.Fatalf("round trip = %q, %v", got, ok)
	}
	// Persist across Close and reopen together with entries.
	_ = s.Put(entry("a", "d"))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	loaded := openSnapshot(t, path).Store()
	if loaded.Len() != 1 {
		t.Errorf("entries lost: %d", loaded.Len())
	}
	got, ok = loaded.LoadCheckpoint("job")
	var cp struct {
		Rung int `json:"rung"`
	}
	if !ok {
		t.Fatal("checkpoint lost across save/load")
	}
	if err := json.Unmarshal(got, &cp); err != nil || cp.Rung != 2 {
		t.Errorf("checkpoint mangled across save/load: %q (%v)", got, err)
	}
	if keys := loaded.CheckpointKeys(); len(keys) != 1 || keys[0] != "job" {
		t.Errorf("CheckpointKeys = %v", keys)
	}
	loaded.ClearCheckpoint("job")
	if _, ok := loaded.LoadCheckpoint("job"); ok {
		t.Error("cleared checkpoint still present")
	}
}

func TestLoadLegacyArrayFormat(t *testing.T) {
	// Stores written before the checkpoint extension were bare entry
	// arrays; they must keep loading.
	path := filepath.Join(t.TempDir(), "legacy.json")
	legacy := `[{"signature":"IC/layers=18","device":"i7","config":{"infer_batch":8},"throughput":42}]`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openSnapshot(t, path).Store()
	if s.Len() != 1 {
		t.Fatalf("legacy load got %d entries", s.Len())
	}
	got, err := s.Get("IC/layers=18", "i7")
	if err != nil || got.Throughput != 42 {
		t.Errorf("legacy entry mangled: %+v, %v", got, err)
	}
}

// TestConcurrentPutSameKey: concurrent writers to one key must settle
// on one writer's complete entry — overwrite semantics, never a torn
// mix of two entries. Run with -race.
func TestConcurrentPutSameKey(t *testing.T) {
	s := New()
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := entry("hot", "d")
				// Writer n stamps every field with its id so torn
				// writes are detectable.
				e.Throughput = float64(n)
				e.TrialsRun = n
				e.Config = search.Config{"infer_batch": float64(n)}
				_ = s.Put(e)
			}
		}(g)
	}
	wg.Wait()
	got, err := s.Get("hot", "d")
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput != float64(got.TrialsRun) || got.Config["infer_batch"] != got.Throughput {
		t.Errorf("torn write: %+v", got)
	}
}

// TestConcurrentMergeAndPut: copying one store's entries into another
// while Put (and reads) race on the target must leave the union of all
// writes, with every entry intact. Run with -race.
func TestConcurrentMergeAndPut(t *testing.T) {
	src := New()
	for _, sig := range []string{"m1", "m2", "m3", "m4"} {
		_ = src.Put(entry(sig, "d"))
	}
	dst := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, e := range src.Entries() {
					if err := dst.Put(e); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = dst.Put(entry("p", "d"))
				_, _ = dst.Get("m1", "d")
				_ = dst.Entries()
			}
		}(g)
	}
	wg.Wait()
	if dst.Len() != 5 {
		t.Errorf("Len = %d, want 4 merged + 1 put", dst.Len())
	}
	for _, sig := range []string{"m1", "m2", "m3", "m4", "p"} {
		got, err := dst.Get(sig, "d")
		if err != nil {
			t.Errorf("%s lost: %v", sig, err)
			continue
		}
		if got.Throughput != 42 || got.Config["infer_batch"] != 8 {
			t.Errorf("%s mangled: %+v", sig, got)
		}
	}
}

// TestMergeSelf: putting a store's own entries back into it must not
// deadlock (Entries returns a snapshot, not a view held under the lock).
func TestMergeSelf(t *testing.T) {
	s := New()
	_ = s.Put(entry("a", "d"))
	done := make(chan error, 1)
	go func() {
		for _, e := range s.Entries() {
			if err := s.Put(e); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-merge deadlocked")
	}
	if s.Len() != 1 {
		t.Errorf("self-merge changed Len to %d", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sig := string(rune('a' + (n+i)%4))
				_ = s.Put(entry(sig, "d"))
				_, _ = s.Get(sig, "d")
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
}

// TestLegacyFileMigration round-trips a pre-WAL store file — the
// {entries, checkpoints} document without a stats block — through
// open → Close → open, asserting entries, checkpoints, and the hit/miss
// counters accumulated in between all survive the migration to the
// current format.
func TestLegacyFileMigration(t *testing.T) {
	dir := t.TempDir()
	legacyPath := filepath.Join(dir, "legacy.json")
	legacy := `{
  "entries": [
    {"signature": "IC/layers=18", "device": "i7",
     "config": {"infer_batch": 8, "cores": 2},
     "throughput": 42, "energyPerSampleJoules": 0.5,
     "latencySeconds": 0.19, "objective": 0.0119, "trialsRun": 12},
    {"signature": "OD/dropout=0.3", "device": "rpi3b+",
     "config": {"infer_batch": 4, "cores": 4},
     "throughput": 7, "energyPerSampleJoules": 1.1,
     "latencySeconds": 0.6, "objective": 0.08, "trialsRun": 9}
  ],
  "checkpoints": {"job-a": {"rung": 2}}
}`
	if err := os.WriteFile(legacyPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openSnapshot(t, legacyPath)
	s := d.Store()
	if s.Len() != 2 {
		t.Fatalf("legacy load: %d entries, want 2", s.Len())
	}
	if hits, misses := s.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("legacy load stats = %d/%d, want 0/0", hits, misses)
	}
	// Accumulate statistics, then migrate: Close rewrites the file in
	// the new format.
	s.Get("IC/layers=18", "i7")
	s.Get("IC/layers=18", "i7")
	s.Get("nope", "i7")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openSnapshot(t, legacyPath).Store()
	if s2.Len() != 2 {
		t.Errorf("migrated load: %d entries, want 2", s2.Len())
	}
	got, err := s2.Get("OD/dropout=0.3", "rpi3b+")
	if err != nil {
		t.Fatal(err)
	}
	if got.Config["cores"] != 4 || got.Objective != 0.08 {
		t.Errorf("migration mangled entry: %+v", got)
	}
	cp, ok := s2.LoadCheckpoint("job-a")
	if !ok {
		t.Fatal("checkpoint lost in migration")
	}
	var blob struct {
		Rung int `json:"rung"`
	}
	if err := json.Unmarshal(cp, &blob); err != nil || blob.Rung != 2 {
		t.Errorf("checkpoint after migration = %q (err %v), want rung 2", cp, err)
	}
	// The migrated-file stats must include the pre-save counters (plus
	// the one Get above).
	hits, misses := s2.Stats()
	if hits != 3 || misses != 1 {
		t.Errorf("stats after migration = %d/%d, want 3/1", hits, misses)
	}
}
