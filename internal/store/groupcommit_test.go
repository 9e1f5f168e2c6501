package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// errDisk is the write error a gateFS injects.
var errDisk = errors.New("gate: disk refused the write")

// gateFS is the real filesystem with a hand on the writes and fsyncs of
// every file it opens for appending — the WAL: it counts them, tracks
// how many bytes are written and how many of those an fsync made
// durable, and can hold one numbered operation (counted from 1) until
// release is closed, or fail writes from a number on.
type gateFS struct {
	OSFS

	mu        sync.Mutex
	writes    int
	syncs     int
	written   int64
	synced    int64
	parkWrite int // hold the parkWrite-th Write (0: none)
	parkSync  int // hold the parkSync-th Sync (0: none)
	failWrite int // fail the failWrite-th Write and every later one (0: none)
	parked    chan struct{}
	release   chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{parked: make(chan struct{}), release: make(chan struct{})}
}

// armSync makes the nth Sync from now on the one held.
func (g *gateFS) armSync(n int) {
	g.mu.Lock()
	g.parkSync = g.syncs + n
	g.mu.Unlock()
}

// counts reports the writes and fsyncs so far.
func (g *gateFS) counts() (writes, syncs int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writes, g.syncs
}

// durable reports how many bytes of the log an fsync has made durable.
func (g *gateFS) durable() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.synced
}

func (g *gateFS) OpenAppend(path string) (File, error) {
	f, err := g.OSFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

func (g *gateFS) Truncate(path string, size int64) error {
	g.mu.Lock()
	g.written = size
	g.synced = min(g.synced, size)
	g.mu.Unlock()
	return g.OSFS.Truncate(path, size)
}

type gateFile struct {
	File
	g *gateFS
}

func (f *gateFile) Write(p []byte) (int, error) {
	g := f.g
	g.mu.Lock()
	g.writes++
	park := g.writes == g.parkWrite
	fail := g.failWrite > 0 && g.writes >= g.failWrite
	g.mu.Unlock()
	if park {
		close(g.parked)
		<-g.release
	}
	if fail {
		return 0, errDisk
	}
	n, err := f.File.Write(p)
	g.mu.Lock()
	g.written += int64(n)
	g.mu.Unlock()
	return n, err
}

func (f *gateFile) Sync() error {
	g := f.g
	g.mu.Lock()
	g.syncs++
	park := g.syncs == g.parkSync
	g.mu.Unlock()
	if park {
		close(g.parked)
		<-g.release
	}
	err := f.File.Sync()
	g.mu.Lock()
	if err == nil {
		g.synced = g.written
	}
	g.mu.Unlock()
	return err
}

// openGated opens a durable store on g in a fresh directory.
func openGated(t *testing.T, g *gateFS, opts DurableOptions) *Durable {
	t.Helper()
	if opts.SnapshotPath == "" {
		opts.SnapshotPath = filepath.Join(t.TempDir(), "store.json")
	}
	opts.FS = g
	d, err := OpenDurable(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// returnsWhile fails the test unless op returns within five seconds:
// it must not wait on the operation the test holds.
func returnsWhile(t *testing.T, what string, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited on a put parked in its fsync", what)
	}
}

// TestGroupCommitReadsDoNotWaitOnFsync: with a Put parked inside its
// WAL fsync, every read — the store's own, a checkpoint load, the
// statistics, and a write-behind Get of a stored and of a buffered
// entry — returns, and none of them sees the parked Put.
func TestGroupCommitReadsDoNotWaitOnFsync(t *testing.T) {
	g := newGateFS()
	d := openGated(t, g, DurableOptions{})
	st := d.Store()
	if err := st.Put(wbEntry("sig-a", "i7")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SaveCheckpoint("job", []byte(`{"rung":1}`)); err != nil {
		t.Fatal(err)
	}
	wb := newWriteBehind(st) // no background flusher: sig-c stays buffered
	if err := wb.Put(wbEntry("sig-c", "i7")); err != nil {
		t.Fatal(err)
	}

	g.armSync(1)
	putErr := make(chan error, 1)
	go func() { putErr <- st.Put(wbEntry("sig-b", "i7")) }()
	<-g.parked

	returnsWhile(t, "Store.get", func() error {
		_, err := st.get("sig-a", "i7")
		return err
	})
	returnsWhile(t, "Store.get of the parked put", func() error {
		if _, err := st.get("sig-b", "i7"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("read a put before its fsync: err = %v", err)
		}
		return nil
	})
	returnsWhile(t, "LoadCheckpoint", func() error {
		if _, ok := st.LoadCheckpoint("job"); !ok {
			return errors.New("checkpoint missing")
		}
		return nil
	})
	returnsWhile(t, "Stats", func() error {
		st.Stats()
		return nil
	})
	returnsWhile(t, "WriteBehind.Get", func() error {
		_, err := wb.Get("sig-a", "i7")
		return err
	})
	returnsWhile(t, "Len and Entries", func() error {
		if st.Len() != 1 || len(st.Entries()) != 1 {
			return fmt.Errorf("store holds %d entries during the fsync, want 1", st.Len())
		}
		return nil
	})

	// A buffered entry is answered from the buffer: a Get writes
	// nothing, so it does not queue behind the parked put, nor holds
	// the buffer from Puts.
	returnsWhile(t, "WriteBehind.Get of a buffered entry", func() error {
		if e, err := wb.Get("sig-c", "i7"); err != nil || e.Signature != "sig-c" {
			return fmt.Errorf("buffered entry = %+v, %v", e, err)
		}
		return nil
	})
	returnsWhile(t, "WriteBehind.Put beside the parked put", func() error {
		return wb.Put(wbEntry("sig-d", "i7"))
	})

	close(g.release)
	if err := <-putErr; err != nil {
		t.Fatal(err)
	}
	if _, err := st.get("sig-b", "i7"); err != nil {
		t.Errorf("the put is not readable after its fsync: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitOneSyncPerFlush: a Flush of N buffered entries writes
// N WAL frames and fsyncs once, and a recovery from that log alone
// replays all N.
func TestGroupCommitOneSyncPerFlush(t *testing.T) {
	const n = 16
	g := newGateFS()
	d := openGated(t, g, DurableOptions{})
	wb := newWriteBehind(d.Store())
	for i := range n {
		if err := wb.Put(wbEntry(fmt.Sprintf("sig-%02d", i), "i7")); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if writes, syncs := g.counts(); writes != n || syncs != 1 {
		t.Errorf("a Flush of %d entries made %d writes and %d fsyncs, want %d and 1", n, writes, syncs, n)
	}
	if d.appendSeq != n {
		t.Errorf("%d appends counted for %d entries", d.appendSeq, n)
	}
	if err := d.Abandon(); err != nil { // the log as it stands, uncompacted
		t.Fatal(err)
	}
	again, err := OpenDurable(DurableOptions{SnapshotPath: d.snapPath})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rec := again.Recovery(); rec.RecordsReplayed != n || rec.Entries != n || rec.TruncatedBytes != 0 {
		t.Errorf("recovery %+v, want %d records replayed into %d entries", rec, n, n)
	}
}

// syncedShipper checks every frame it is shipped against the bytes of
// the log an fsync has made durable.
type syncedShipper struct {
	t       *testing.T
	g       *gateFS
	shipped int64
	frames  int
}

func (s *syncedShipper) Ship(_ int64, frame []byte) {
	s.shipped += int64(len(frame))
	s.frames++
	if durable := s.g.durable(); s.shipped > durable {
		s.t.Errorf("frame %d shipped up to byte %d of the log; only %d are fsynced", s.frames, s.shipped, durable)
	}
}

// TestGroupCommitShipsOnlySyncedFrames: through single puts, grouped
// flushes, checkpoints and clears, no frame reaches the Shipper before
// the fsync that makes it durable, and every frame reaches it.
func TestGroupCommitShipsOnlySyncedFrames(t *testing.T) {
	g := newGateFS()
	ship := &syncedShipper{t: t, g: g}
	d := openGated(t, g, DurableOptions{Shipper: ship, SnapshotEvery: -1})
	st := d.Store()
	wb := newWriteBehind(st)
	for round := range 4 {
		for i := range round + 1 {
			if err := wb.Put(wbEntry(fmt.Sprintf("sig-%d-%d", round, i), "i7")); err != nil {
				t.Fatal(err)
			}
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.SaveCheckpoint("job", []byte(fmt.Sprintf(`{"rung":%d}`, round))); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(wbEntry(fmt.Sprintf("direct-%d", round), "i7")); err != nil {
			t.Fatal(err)
		}
	}
	st.ClearCheckpoint("job")
	if int64(ship.frames) != d.appendSeq || ship.shipped != d.walSize {
		t.Errorf("shipped %d frames, %d bytes; the log holds %d, %d", ship.frames, ship.shipped, d.appendSeq, d.walSize)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitWALOrderIsApplyOrder: Puts of one key and
// SaveCheckpoints of one job race from many goroutines; the value
// memory holds at the end is the one the log wrote last, so a recovery
// from the log alone rebuilds exactly what the store held.
func TestGroupCommitWALOrderIsApplyOrder(t *testing.T) {
	const workers, each = 4, 25
	d, err := OpenDurable(DurableOptions{SnapshotPath: filepath.Join(t.TempDir(), "store.json"), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Store()
	wb := newWriteBehind(st)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(3)
		go func() { // direct puts
			defer wg.Done()
			for i := range each {
				e := wbEntry("same", "i7")
				e.Throughput = float64(1000*w + i)
				if err := st.Put(e); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() { // buffered puts, flushed as groups
			defer wg.Done()
			for i := range each {
				e := wbEntry("same", "i7")
				e.Throughput = float64(1000*w + 500 + i)
				if err := wb.Put(e); err != nil {
					t.Error(err)
				}
				if i%5 == 4 {
					if err := wb.Flush(); err != nil {
						t.Error(err)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range each {
				blob := []byte(fmt.Sprintf(`{"by":%d,"n":%d}`, w, i))
				if _, err := st.SaveCheckpoint("job", blob); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	held, err := st.Get("same", "i7")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := st.LoadCheckpoint("job")

	data, err := os.ReadFile(d.walPath)
	if err != nil {
		t.Fatal(err)
	}
	var lastPut float64
	var lastBlob json.RawMessage
	for _, rec := range scanWAL(data).Records {
		switch rec.Op {
		case walOpPut:
			lastPut = rec.Entry.Throughput
		case walOpCheckpoint:
			lastBlob = rec.Data
		}
	}
	if held.Throughput != lastPut {
		t.Errorf("memory holds put %v, the log's last is %v", held.Throughput, lastPut)
	}
	if string(blob) != string(lastBlob) {
		t.Errorf("memory holds checkpoint %s, the log's last is %s", blob, lastBlob)
	}
	if err := d.Abandon(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(DurableOptions{SnapshotPath: d.snapPath})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	got, err := again.Store().Get("same", "i7")
	if err != nil || got.Throughput != held.Throughput {
		t.Errorf("recovered put %v (%v), want %v", got.Throughput, err, held.Throughput)
	}
}

// TestGroupCommitKillLandsOnTheNthAppend: a Flush whose group would run
// past the chaos kill point is cut there, so the process dies right
// after the fsync of exactly the KillAfterAppends-th append. The kill
// ends the process, so a child test binary runs the store.
func TestGroupCommitKillLandsOnTheNthAppend(t *testing.T) {
	if path := os.Getenv("STORE_KILL_CHILD_PATH"); path != "" {
		kill, _ := strconv.Atoi(os.Getenv("STORE_KILL_CHILD_AFTER"))
		d, err := OpenDurable(DurableOptions{SnapshotPath: path, KillAfterAppends: kill})
		if err != nil {
			t.Fatal(err)
		}
		wb := newWriteBehind(d.Store())
		if err := wb.Put(wbEntry("first", "i7")); err != nil {
			t.Fatal(err)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := range 6 {
			if err := wb.Put(wbEntry(fmt.Sprintf("sig-%d", i), "i7")); err != nil {
				t.Fatal(err)
			}
		}
		wb.Flush()
		t.Fatal("the kill point passed without a kill")
	}
	for _, kill := range []int{1, 2, 4, 7} {
		path := filepath.Join(t.TempDir(), "store.json")
		cmd := exec.Command(os.Args[0], "-test.run=^TestGroupCommitKillLandsOnTheNthAppend$")
		cmd.Env = append(os.Environ(), "STORE_KILL_CHILD_PATH="+path, "STORE_KILL_CHILD_AFTER="+strconv.Itoa(kill))
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != KillExitCode {
			t.Fatalf("kill after %d: child ended with %v, want exit %d:\n%s", kill, err, KillExitCode, out)
		}
		data, err := os.ReadFile(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		if sc := scanWAL(data); len(sc.Records) != kill || sc.TruncatedBytes != 0 {
			t.Errorf("kill after %d: the log holds %d records and %d torn bytes", kill, len(sc.Records), sc.TruncatedBytes)
		}
	}
}
