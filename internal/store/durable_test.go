package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
)

// openDurable opens a durable store rooted in dir with test-friendly
// defaults, failing the test on error.
func openDurable(t *testing.T, dir string, opts DurableOptions) *Durable {
	t.Helper()
	if opts.SnapshotPath == "" {
		opts.SnapshotPath = filepath.Join(dir, "store.json")
	}
	d, err := OpenDurable(opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return d
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	st := d.Store()
	if err := st.Put(entry("IC/layers=18", "i7")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(entry("IC/layers=50", "rpi3b+")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveCheckpoint("job-1", []byte(`{"rung":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	rr := d2.Recovery()
	if rr.SnapshotSource != "snapshot" {
		t.Errorf("SnapshotSource = %q, want snapshot", rr.SnapshotSource)
	}
	if rr.RecordsReplayed != 0 || rr.RecordsQuarantined != 0 || rr.TruncatedBytes != 0 {
		t.Errorf("clean reopen salvage = %+v, want all zero", rr)
	}
	if rr.Entries != 2 || rr.Checkpoints != 1 {
		t.Errorf("recovered %d entries, %d checkpoints; want 2, 1", rr.Entries, rr.Checkpoints)
	}
	got, err := d2.Store().Get("IC/layers=18", "i7")
	if err != nil {
		t.Fatal(err)
	}
	if got.Throughput != 42 {
		t.Errorf("Throughput = %v, want 42", got.Throughput)
	}
	cp, ok := d2.Store().LoadCheckpoint("job-1")
	if !ok {
		t.Fatal("checkpoint lost")
	}
	var blob struct {
		Rung int `json:"rung"`
	}
	// Snapshot marshalling may re-indent the opaque blob; only its JSON
	// content is contractual.
	if err := json.Unmarshal(cp, &blob); err != nil || blob.Rung != 3 {
		t.Errorf("checkpoint = %q (err %v), want rung 3", cp, err)
	}
}

func TestDurableWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	st := d.Store()
	for _, e := range []Entry{entry("a", "d1"), entry("b", "d2"), entry("c", "d3")} {
		if err := st.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SaveCheckpoint("job", []byte(`{"rung":1}`)); err != nil {
		t.Fatal(err)
	}
	st.ClearCheckpoint("job")
	// No Close: the process "crashed". Everything acknowledged must
	// come back from the WAL alone.
	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	rr := d2.Recovery()
	if rr.SnapshotSource != "none" {
		t.Errorf("SnapshotSource = %q, want none", rr.SnapshotSource)
	}
	if rr.RecordsReplayed != 5 {
		t.Errorf("RecordsReplayed = %d, want 5 (3 puts, 1 checkpoint, 1 clear)", rr.RecordsReplayed)
	}
	if rr.Entries != 3 || rr.Checkpoints != 0 {
		t.Errorf("recovered %d entries, %d checkpoints; want 3, 0", rr.Entries, rr.Checkpoints)
	}
}

// TestSaveCheckpointTakesTheSliceOver: the store keeps the caller's
// slice as the blob and hands it back on the key's next save, so the
// caller may write its next checkpoint into what it gets back. The WAL
// record borrows the bytes only for the length of the call, so
// rewriting a handed-back blob changes neither what LoadCheckpoint
// returns nor what a crashed process replays, and what LoadCheckpoint
// returned earlier is a copy of its own.
func TestSaveCheckpointTakesTheSliceOver(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	const first, second = `{"rung":1}`, `{"r":3}`
	buf := []byte(first)
	if prev, err := d.Store().SaveCheckpoint("job", buf); err != nil || prev != nil {
		t.Fatalf("first save handed back %q, %v; want nothing", prev, err)
	}
	got, ok := d.Store().LoadCheckpoint("job")
	if !ok || string(got) != first {
		t.Fatalf("LoadCheckpoint = %q, %v; want %q", got, ok, first)
	}
	prev, err := d.Store().SaveCheckpoint("job", []byte(second))
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) != len(buf) || &prev[0] != &buf[0] {
		t.Fatalf("the second save handed back %q, not the first save's slice", prev)
	}
	copy(prev, `{"rung":9}`)
	if string(got) != first {
		t.Errorf("an earlier LoadCheckpoint result reads %q after its blob was rewritten; want %q", got, first)
	}
	if again, ok := d.Store().LoadCheckpoint("job"); !ok || string(again) != second {
		t.Errorf("LoadCheckpoint = %q, %v after the handed-back blob was rewritten; want %q", again, ok, second)
	}
	// No Close: recovery has the WAL alone to replay.
	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if rr := d2.Recovery(); rr.RecordsReplayed != 2 || rr.Checkpoints != 1 {
		t.Fatalf("recovery replayed %d records into %d checkpoints, want 2 and 1", rr.RecordsReplayed, rr.Checkpoints)
	}
	if replayed, ok := d2.Store().LoadCheckpoint("job"); !ok || string(replayed) != second {
		t.Errorf("recovery replayed %q, %v; want %q", replayed, ok, second)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.Store().Put(entry("a", "d")); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Put(entry("b", "d")); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "store.json.wal")
	good, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// A torn append: a frame header promising more bytes than landed.
	frame, err := encodeWALRecord(walRecord{Op: walOpPut, Entry: &Entry{Signature: "torn", Device: "d"}})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), good...), frame[:len(frame)-5]...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir, DurableOptions{})
	rr := d2.Recovery()
	if rr.RecordsReplayed != 2 || rr.Entries != 2 {
		t.Errorf("replayed %d records into %d entries, want 2/2", rr.RecordsReplayed, rr.Entries)
	}
	if want := int64(len(frame) - 5); rr.TruncatedBytes != want {
		t.Errorf("TruncatedBytes = %d, want %d", rr.TruncatedBytes, want)
	}
	if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(good)) {
		t.Errorf("wal size after repair = %v (err %v), want %d", fi.Size(), err, len(good))
	}
	// The repaired log keeps accepting appends that survive another
	// reopen.
	if err := d2.Store().Put(entry("after-repair", "d")); err != nil {
		t.Fatal(err)
	}
	if err := d2.wal.Close(); err != nil { // crash again, no compaction
		t.Fatal(err)
	}
	d3 := openDurable(t, dir, DurableOptions{})
	defer d3.Close()
	if d3.Store().Len() != 3 {
		t.Errorf("entries after second recovery = %d, want 3", d3.Store().Len())
	}
}

func TestDurableBitFlipQuarantined(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	for _, e := range []Entry{entry("a", "d"), entry("b", "d"), entry("c", "d")} {
		if err := d.Store().Put(e); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, "store.json.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the second record: framing stays intact,
	// the checksum does not.
	first := walHeaderSize + int(binary.LittleEndian.Uint32(data[0:4]))
	data[first+walHeaderSize+3] ^= 0x01
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	d2 := openDurable(t, dir, DurableOptions{Metrics: reg})
	defer d2.Close()
	rr := d2.Recovery()
	if rr.RecordsReplayed != 2 || rr.RecordsQuarantined != 1 {
		t.Errorf("replayed/quarantined = %d/%d, want 2/1", rr.RecordsReplayed, rr.RecordsQuarantined)
	}
	if rr.TruncatedBytes != 0 {
		t.Errorf("TruncatedBytes = %d, want 0 (framing was intact)", rr.TruncatedBytes)
	}
	if d2.Store().Len() != 2 {
		t.Errorf("entries = %d, want 2", d2.Store().Len())
	}
	// The corrupt frame is preserved for inspection, never deleted.
	q, err := os.ReadFile(walPath + ".quarantine")
	if err != nil || len(q) == 0 {
		t.Errorf("quarantine file: %v (len %d)", err, len(q))
	}
	if got := reg.Counter("store.recovery.quarantined").Value(); got != 1 {
		t.Errorf("store.recovery.quarantined = %d, want 1", got)
	}
	if got := reg.Counter("store.recovery.replayed").Value(); got != 2 {
		t.Errorf("store.recovery.replayed = %d, want 2", got)
	}
}

func TestDurableSnapshotFallbackToPrev(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.json")
	d := openDurable(t, dir, DurableOptions{})
	if err := d.Store().Put(entry("gen1", "d")); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Put(entry("gen2", "d")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // rotates gen1 snapshot to .prev
		t.Fatal(err)
	}
	if _, err := os.Stat(snap + ".prev"); err != nil {
		t.Fatalf("no .prev generation after second compaction: %v", err)
	}
	// Bit-rot the current snapshot.
	if err := os.WriteFile(snap, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	rr := d2.Recovery()
	if rr.SnapshotSource != "previous" {
		t.Errorf("SnapshotSource = %q, want previous", rr.SnapshotSource)
	}
	if !rr.SnapshotQuarantined {
		t.Error("corrupt snapshot not marked quarantined")
	}
	if _, err := os.Stat(snap + ".quarantine"); err != nil {
		t.Errorf("corrupt snapshot not preserved: %v", err)
	}
	// The previous generation only has gen1; gen2 lived in the WAL that
	// the second compaction reset — degraded, but never an error.
	if _, err := d2.Store().Get("gen1", "d"); err != nil {
		t.Errorf("gen1 lost: %v", err)
	}
}

func TestDurableCompactionRotatesGenerations(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.json")
	d := openDurable(t, dir, DurableOptions{SnapshotEvery: 3})
	st := d.Store()
	for _, sig := range []string{"a", "b", "c", "e", "f"} {
		if err := st.Put(entry(sig, "d")); err != nil {
			t.Fatal(err)
		}
	}
	// Sync triggers compaction (5 records >= 3 since last snapshot).
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(snap + ".wal"); err != nil || fi.Size() != 0 {
		t.Errorf("wal after compaction: size %v, err %v; want empty", fi.Size(), err)
	}
	for _, sig := range []string{"g", "h", "i"} {
		if err := st.Put(entry(sig, "d")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap + ".prev")
	if err != nil {
		t.Fatalf("previous generation missing: %v", err)
	}
	prev, err := parseStoreFile(data)
	if err != nil {
		t.Fatalf("previous generation corrupt: %v", err)
	}
	if len(prev.Entries) != 5 {
		t.Errorf("previous generation has %d entries, want 5", len(prev.Entries))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if d2.Store().Len() != 8 {
		t.Errorf("entries after reopen = %d, want 8", d2.Store().Len())
	}
}

func TestDurableStatsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	st := d.Store()
	if err := st.Put(entry("a", "d")); err != nil {
		t.Fatal(err)
	}
	st.Get("a", "d")
	st.Get("a", "d")
	st.Get("missing", "d")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	hits, misses := d2.Store().Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats after restart = %d/%d, want 2/1", hits, misses)
	}
}

func TestDurableObservability(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	ev := slo.NewEvaluator()
	tr := obs.NewTracer()
	d := openDurable(t, dir, DurableOptions{Metrics: reg, SLO: ev, Trace: tr})
	if err := d.Store().Put(entry("a", "d")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.wal.appends").Value(); got != 1 {
		t.Errorf("store.wal.appends = %d, want 1", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.snapshot.compactions").Value(); got != 1 {
		t.Errorf("store.snapshot.compactions = %d, want 1", got)
	}
	snap := ev.Snapshot()
	found := false
	for _, o := range snap.Objectives {
		if o.Name == "store/durability" {
			found = true
			if o.Events != 1 || o.Errors != 0 {
				t.Errorf("durability SLO = %d events, %d errors; want 1, 0", o.Events, o.Errors)
			}
		}
	}
	if !found {
		t.Error("store/durability objective not registered")
	}
	if tr.Len() == 0 {
		t.Fatal("no recovery span recorded")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "store/recover") {
		t.Error("trace has no store/recover span")
	}
}

func TestDurableClosedRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := d.Store().Put(entry("late", "d")); err != ErrDurableClosed {
		t.Errorf("Put after Close = %v, want ErrDurableClosed", err)
	}
}

func TestScrubReports(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.json")
	d := openDurable(t, dir, DurableOptions{})
	if err := d.Store().Put(entry("a", "d")); err != nil {
		t.Fatal(err)
	}
	if err := d.Store().Put(entry("b", "d")); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.RecordsReplayed != 2 || rep.Entries != 2 {
		t.Errorf("clean scrub = %+v", rep)
	}
	// Scrub is read-only: the WAL must be untouched afterwards.
	before, _ := os.ReadFile(snap + ".wal")
	data := append(append([]byte(nil), before...), 0xde, 0xad, 0xbe)
	if err := os.WriteFile(snap+".wal", data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Error("scrub of torn wal reported clean")
	}
	if rep.TruncatedBytes != 3 {
		t.Errorf("TruncatedBytes = %d, want 3", rep.TruncatedBytes)
	}
	if after, _ := os.ReadFile(snap + ".wal"); len(after) != len(data) {
		t.Error("Scrub modified the wal")
	}
	d.wal.Close()

	// A corrupt snapshot flags too.
	if err := os.WriteFile(snap, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || !rep.SnapshotQuarantined || rep.SnapshotError == "" {
		t.Errorf("corrupt-snapshot scrub = %+v", rep)
	}
}

// salvageSnapshot is a snapshot recovery has to salvage: one valid
// entry, one entry with an empty signature and one checkpoint with an
// empty key.
const salvageSnapshot = `{"entries":[{"signature":"IC/layers=18","device":"i7","config":{"cores":2}},` +
	`{"signature":"","device":"i7","config":{}}],"checkpoints":{"":{"rung":1}}}`

// TestScrubMatchesRecovery: Scrub is recovery without the repairs, so
// on a store recovery salvages it reports the store dirty, with the
// report the open then makes.
func TestScrubMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.json")
	if err := os.WriteFile(snap, []byte(salvageSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(snap)
	if err != nil {
		t.Fatal(err)
	}
	d := openDurable(t, dir, DurableOptions{})
	defer d.Close()
	rr := d.Recovery()
	if rr.RecordsQuarantined != 2 || rr.Entries != 1 || rr.Checkpoints != 0 {
		t.Fatalf("recovery = %+v, want 2 records quarantined, 1 entry, no checkpoint", rr)
	}
	if rep.Clean {
		t.Errorf("Scrub reported clean a store whose recovery quarantined %d records", rr.RecordsQuarantined)
	}
	if rep.RecoveryReport != rr {
		t.Errorf("Scrub found %+v, recovery %+v", rep.RecoveryReport, rr)
	}
}

// readsFS records the names of the files a store reads.
type readsFS struct {
	OSFS
	reads []string
}

func (f *readsFS) ReadFile(path string) ([]byte, error) {
	f.reads = append(f.reads, filepath.Base(path))
	return f.OSFS.ReadFile(path)
}

// TestOpenReadsPrevOnlyWithoutAValidSnapshot: an open reads the
// previous snapshot generation only when the current one is corrupt
// (or missing), and the WAL always.
func TestOpenReadsPrevOnlyWithoutAValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "store.json")
	for _, tc := range []struct {
		current string
		want    []string
	}{
		{"{}", []string{"store.json", "store.json.wal"}},
		{"{torn", []string{"store.json", "store.json.prev", "store.json.wal"}},
	} {
		for path, data := range map[string]string{snap: tc.current, snap + ".prev": "{}"} {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fsys := &readsFS{}
		d := openDurable(t, dir, DurableOptions{FS: fsys})
		if !reflect.DeepEqual(fsys.reads, tc.want) {
			t.Errorf("snapshot %q: the open read %v, want %v", tc.current, fsys.reads, tc.want)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScanWALEmptyAndGarbage(t *testing.T) {
	if sc := scanWAL(nil); len(sc.Records) != 0 || sc.ValidEnd != 0 {
		t.Errorf("empty scan = %+v", sc)
	}
	// Pure garbage: everything is a torn tail, nothing replays, nothing
	// errors.
	sc := scanWAL([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	if len(sc.Records) != 0 || sc.TruncatedBytes != 12 {
		t.Errorf("garbage scan = %+v", sc)
	}
}

func TestDurableRejectsMissingPath(t *testing.T) {
	if _, err := OpenDurable(DurableOptions{}); err == nil {
		t.Error("OpenDurable without a snapshot path accepted")
	}
}

func TestParseStoreFileLegacyArray(t *testing.T) {
	data, err := json.Marshal([]Entry{entry("a", "d")})
	if err != nil {
		t.Fatal(err)
	}
	file, err := parseStoreFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Entries) != 1 || file.Entries[0].Signature != "a" {
		t.Errorf("legacy parse = %+v", file)
	}
}

// FuzzSnapshotRecover: the snapshot decoder reads whatever a crash, an
// older build or a hand edit left as store.json. On any bytes opening
// the store must not panic, and what it recovered must survive a Close,
// which compacts it into a snapshot of its own: the second open holds
// the same entries, checkpoint keys and statistics as the first. A
// Scrub taken before the first open reports what that open recovers.
func FuzzSnapshotRecover(f *testing.F) {
	snapshot, err := json.MarshalIndent(storeFile{
		Entries:     []Entry{entry("IC/layers=18", "i7"), entry("OD/dropout=0.3", "rpi3b+")},
		Checkpoints: map[string]json.RawMessage{"job": json.RawMessage(`{"rung": 2}`)},
		Stats:       &storeStats{Hits: 3, Misses: 1},
	}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := json.Marshal([]Entry{entry("a", "d")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot)
	f.Add(legacy)
	f.Add(snapshot[:len(snapshot)/2]) // torn
	f.Add([]byte(`{"entries":[{"signature":"a@b","device":"c"},{"signature":"a","device":"b@c","trialsRun":2}]}`))
	f.Add([]byte(`{"entries":[{"signature":"s","device":"d"},{"signature":"","device":"d"},null,{"signature":"s","device":"d","config":{}}]}`))
	f.Add([]byte(`{"entries":null,"checkpoints":{"a":null,"":{}},"stats":{"hits":0,"misses":0}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "store.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		type state struct {
			entries      []Entry
			checkpoints  []string
			hits, misses int
		}
		open := func() (*Durable, state) {
			d := openDurable(t, dir, DurableOptions{})
			st := d.Store()
			s := state{entries: st.Entries(), checkpoints: st.CheckpointKeys()}
			s.hits, s.misses = st.Stats()
			return d, s
		}
		rep, err := Scrub(path)
		if err != nil {
			t.Fatalf("Scrub: %v", err)
		}
		d, first := open()
		// Scrub is the open without its repairs: it reports the state
		// the open recovers, and clean exactly when nothing is salvaged.
		rr := d.Recovery()
		if rep.Entries != rr.Entries || rep.Checkpoints != rr.Checkpoints {
			t.Fatalf("Scrub found %d entries, %d checkpoints; the open recovered %d, %d",
				rep.Entries, rep.Checkpoints, rr.Entries, rr.Checkpoints)
		}
		if salvaged := rr.RecordsQuarantined > 0 || rr.SnapshotQuarantined || rr.TruncatedBytes > 0; rep.Clean == salvaged {
			t.Fatalf("Scrub clean=%v; the open salvaged %+v", rep.Clean, rr)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		d, second := open()
		defer d.Close()
		if src := d.Recovery().SnapshotSource; src != "snapshot" {
			t.Fatalf("second open recovered from %q, want the snapshot Close wrote", src)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("a compacted store reopened differently:\nfirst  %+v\nsecond %+v", first, second)
		}
	})
}
