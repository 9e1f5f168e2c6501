package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
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
	if err := st.SaveCheckpoint("job-1", []byte(`{"rung":3}`)); err != nil {
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
	if err := st.SaveCheckpoint("job", []byte(`{"rung":1}`)); err != nil {
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

// TestSaveCheckpointKeepsNothingOfTheCallersSlice: the WAL record
// borrows the caller's bytes for the length of the call and the map owns
// a copy, so a caller that reuses its buffer afterwards changes neither
// what LoadCheckpoint returns nor what a crashed process replays.
func TestSaveCheckpointKeepsNothingOfTheCallersSlice(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, DurableOptions{})
	const want = `{"rung":1}`
	buf := []byte(want)
	if err := d.Store().SaveCheckpoint("job", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, `{"rung":9}`)
	if got, ok := d.Store().LoadCheckpoint("job"); !ok || string(got) != want {
		t.Errorf("LoadCheckpoint = %q, %v after the caller rewrote its slice; want %q", got, ok, want)
	}
	// No Close: recovery has the WAL alone to replay.
	d2 := openDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if rr := d2.Recovery(); rr.RecordsReplayed != 1 || rr.Checkpoints != 1 {
		t.Fatalf("recovery replayed %d records into %d checkpoints, want 1 and 1", rr.RecordsReplayed, rr.Checkpoints)
	}
	if got, ok := d2.Store().LoadCheckpoint("job"); !ok || string(got) != want {
		t.Errorf("recovery replayed %q, %v; want %q", got, ok, want)
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
	rep, err := Scrub(nil, snap, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.WALRecords != 2 || rep.Entries != 2 {
		t.Errorf("clean scrub = %+v", rep)
	}
	// Scrub is read-only: the WAL must be untouched afterwards.
	before, _ := os.ReadFile(snap + ".wal")
	data := append(append([]byte(nil), before...), 0xde, 0xad, 0xbe)
	if err := os.WriteFile(snap+".wal", data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub(nil, snap, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean {
		t.Error("scrub of torn wal reported clean")
	}
	if rep.WALTornBytes != 3 {
		t.Errorf("WALTornBytes = %d, want 3", rep.WALTornBytes)
	}
	if after, _ := os.ReadFile(snap + ".wal"); len(after) != len(data) {
		t.Error("Scrub modified the wal")
	}
	d.wal.Close()

	// A corrupt snapshot flags too.
	if err := os.WriteFile(snap, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub(nil, snap, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.SnapshotValid || rep.SnapshotError == "" {
		t.Errorf("corrupt-snapshot scrub = %+v", rep)
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
