package fault

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"edgetune/internal/counters"
	"edgetune/internal/store"
)

func fsEntry(sig string) store.Entry {
	return store.Entry{Signature: sig, Device: "i7", Throughput: 42}
}

// faultyDurable opens a durable store in dir whose filesystem injects
// the given fault config at the given seed.
func faultyDurable(t *testing.T, dir string, cfg Config, seed uint64) (*store.Durable, *FS) {
	t.Helper()
	in, err := NewInjector(cfg, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFS(nil, in)
	d, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: filepath.Join(dir, "store.json"),
		FS:           ffs,
	})
	if err != nil {
		t.Fatalf("OpenDurable under faults: %v", err)
	}
	return d, ffs
}

// reopenClean reopens the store with the real filesystem (the faults
// are gone, the damage they did is not) and returns it.
func reopenClean(t *testing.T, dir string) *store.Durable {
	t.Helper()
	d, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: filepath.Join(dir, "store.json"),
	})
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	return d
}

func TestFSDiskFull(t *testing.T) {
	dir := t.TempDir()
	d, _ := faultyDurable(t, dir, Config{DiskFull: 1}, 7)
	err := d.Store().Put(fsEntry("a"))
	if err == nil {
		t.Fatal("Put on a full disk succeeded")
	}
	if ClassOf(err) != DiskFull {
		t.Errorf("fault class = %q, want %q", ClassOf(err), DiskFull)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("disk-full error does not wrap ENOSPC: %v", err)
	}
	// The rejected mutation must not be applied in memory either.
	if d.Store().Len() != 0 {
		t.Error("failed Put left the entry in memory")
	}
}

func TestFSTornWriteNeverLosesAckedRecords(t *testing.T) {
	dir := t.TempDir()
	d, _ := faultyDurable(t, dir, Config{DiskTornWrite: 0.4}, 11)
	acked := make([]string, 0, 20)
	failed := 0
	for i := 0; i < 20; i++ {
		sig := fmt.Sprintf("cfg-%02d", i)
		if err := d.Store().Put(fsEntry(sig)); err != nil {
			if ClassOf(err) != DiskTornWrite {
				t.Fatalf("unexpected error class: %v", err)
			}
			failed++
			continue
		}
		acked = append(acked, sig)
	}
	if failed == 0 {
		t.Fatal("no torn writes fired at p=0.4 over 20 appends; seed drift?")
	}

	d2 := reopenClean(t, dir)
	defer d2.Close()
	rr := d2.Recovery()
	// Torn appends are repaired in place (the partial frame truncated
	// off), so recovery sees a well-formed log holding exactly the
	// acknowledged records.
	if rr.RecordsReplayed != len(acked) {
		t.Errorf("replayed %d records, want %d", rr.RecordsReplayed, len(acked))
	}
	if rr.RecordsQuarantined != 0 || rr.TruncatedBytes != 0 {
		t.Errorf("repaired log still had damage: %+v", rr)
	}
	for _, sig := range acked {
		if _, err := d2.Store().Get(sig, "i7"); err != nil {
			t.Errorf("acknowledged record %s lost: %v", sig, err)
		}
	}
}

func TestFSBitFlipQuarantinedAtRecovery(t *testing.T) {
	dir := t.TempDir()
	d, _ := faultyDurable(t, dir, Config{DiskBitFlip: 0.3}, 3)
	total := 20
	for i := 0; i < total; i++ {
		// Bit flips are silent: every Put reports success.
		if err := d.Store().Put(fsEntry(fmt.Sprintf("cfg-%02d", i))); err != nil {
			t.Fatalf("bit-flipped Put failed loudly: %v", err)
		}
	}

	d2 := reopenClean(t, dir)
	defer d2.Close()
	rr := d2.Recovery()
	if rr.RecordsQuarantined == 0 {
		t.Fatal("no records quarantined at p=0.3 over 20 appends; seed drift?")
	}
	if rr.RecordsReplayed+rr.RecordsQuarantined != total {
		t.Errorf("replayed %d + quarantined %d != %d appends",
			rr.RecordsReplayed, rr.RecordsQuarantined, total)
	}
	if rr.TruncatedBytes != 0 {
		t.Errorf("bit flips tore the framing: %+v", rr)
	}
}

func TestFSCrashMidWrite(t *testing.T) {
	dir := t.TempDir()
	d, ffs := faultyDurable(t, dir, Config{DiskCrash: 0.1}, 5)
	acked := make([]string, 0, 64)
	crashed := false
	for i := 0; i < 64; i++ {
		sig := fmt.Sprintf("cfg-%02d", i)
		err := d.Store().Put(fsEntry(sig))
		if err == nil {
			acked = append(acked, sig)
			continue
		}
		if ClassOf(err) != DiskCrash {
			t.Fatalf("unexpected error class: %v", err)
		}
		crashed = true
		break
	}
	if !crashed {
		t.Fatal("disk never crashed at p=0.1 over 64 appends; seed drift?")
	}
	if !ffs.Dead() {
		t.Error("crashed filesystem not marked dead")
	}
	// Everything after the crash fails fast.
	if err := d.Store().Put(fsEntry("after-death")); err == nil {
		t.Error("write to a dead disk succeeded")
	}

	d2 := reopenClean(t, dir)
	defer d2.Close()
	rr := d2.Recovery()
	// Recovery must bring back at least every acknowledged record. It
	// may legitimately bring back one more: a crash at fsync time can
	// leave the full frame durable even though the ack never happened —
	// same as a real database. A crash mid-write instead leaves a torn
	// tail, which is truncated.
	if rr.RecordsReplayed < len(acked) || rr.RecordsReplayed > len(acked)+1 {
		t.Errorf("replayed %d records, want %d acknowledged (+1 at most)", rr.RecordsReplayed, len(acked))
	}
	for _, sig := range acked {
		if _, err := d2.Store().Get(sig, "i7"); err != nil {
			t.Errorf("acknowledged record %s lost: %v", sig, err)
		}
	}
}

func TestFSSlowFsync(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	in, err := NewInjector(Config{DiskSlowFsync: 1}, 9, rec)
	if err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDurable(store.DurableOptions{
		SnapshotPath: filepath.Join(t.TempDir(), "store.json"),
		FS:           NewFS(nil, in),
	})
	if err != nil {
		t.Fatalf("OpenDurable under slow fsyncs: %v", err)
	}
	if err := d.Store().Put(fsEntry("a")); err != nil {
		t.Fatalf("slow fsync failed the write: %v", err)
	}
	if rec.Registry().Counter("fault."+string(DiskSlowFsync)).Value() == 0 {
		t.Error("no slow fsyncs counted at p=1")
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close under slow fsyncs: %v", err)
	}
}

// TestFSDeterministic asserts the disk-fault stream is a pure function
// of (seed, op sequence): two identical runs fail on exactly the same
// operations.
func TestFSDeterministic(t *testing.T) {
	outcomes := func(seed uint64) []bool {
		dir := t.TempDir()
		d, _ := faultyDurable(t, dir, Config{DiskTornWrite: 0.3, DiskBitFlip: 0.2, DiskFull: 0.1}, seed)
		out := make([]bool, 0, 32)
		for i := 0; i < 32; i++ {
			out = append(out, d.Store().Put(fsEntry(fmt.Sprintf("cfg-%02d", i))) == nil)
		}
		return out
	}
	a, b := outcomes(21), outcomes(21)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at op %d", i)
		}
	}
	c := outcomes(22)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault streams (suspicious)")
	}
}

// TestFSDeadDiskErrorsNameTheBaseName: after a crash every operation
// fails, and its error names the file as a crashed Write's does, by its
// base name, never the directory the store lives in.
func TestFSDeadDiskErrorsNameTheBaseName(t *testing.T) {
	dir := t.TempDir()
	in, err := NewInjector(Config{DiskCrash: 1}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ffs := NewFS(nil, in)
	path := filepath.Join(dir, "s.db.wal")
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("frame")); ClassOf(err) != DiskCrash || !ffs.Dead() {
		t.Fatalf("Write at disk-crash=1 returned %v, dead %v", err, ffs.Dead())
	}
	ops := map[string]func() error{
		"ReadFile":   func() error { _, err := ffs.ReadFile(path); return err },
		"Create":     func() error { _, err := ffs.Create(path); return err },
		"OpenAppend": func() error { _, err := ffs.OpenAppend(path); return err },
		"Rename":     func() error { return ffs.Rename(path, path+".prev") },
		"Remove":     func() error { return ffs.Remove(path) },
		"Truncate":   func() error { return ffs.Truncate(path, 0) },
		"SyncDir":    func() error { return ffs.SyncDir(path) },
		"Size":       func() error { _, err := ffs.Size(path); return err },
	}
	for name, op := range ops {
		err := op()
		if ClassOf(err) != DiskCrash {
			t.Errorf("%s on a dead disk returned %v, want a disk-crash fault", name, err)
			continue
		}
		if msg := err.Error(); strings.Contains(msg, dir) || !strings.HasSuffix(msg, " s.db.wal") {
			t.Errorf("%s on a dead disk: %q, want the error to name s.db.wal alone", name, msg)
		}
	}
}
