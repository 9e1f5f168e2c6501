package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Torn-tail edge shapes at the frame boundary: recovery must treat
// each as a torn append — salvage every prior record, truncate the
// tail, and terminate. A zero length prefix in particular must never
// be read as an empty record (the scan would loop on it forever).

// TestDurableZeroLengthTornTailFrame crashes the log with an 8-byte
// header whose length prefix is zero. Everything from that header on
// is a torn tail — including a well-formed frame behind it, because a
// zero length gives the scan no way to resynchronise.
func TestDurableZeroLengthTornTailFrame(t *testing.T) {
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
	// Zero-length header, then a frame that would otherwise be valid.
	zero := make([]byte, walHeaderSize)
	stranded, err := encodeWALRecord(walRecord{Op: walOpPut, Entry: &Entry{Signature: "stranded", Device: "d"}})
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append(append([]byte(nil), good...), zero...), stranded...)
	if err := os.WriteFile(walPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir, DurableOptions{})
	rr := d2.Recovery()
	if rr.RecordsReplayed != 2 || rr.Entries != 2 {
		t.Errorf("replayed %d records into %d entries, want 2/2", rr.RecordsReplayed, rr.Entries)
	}
	if rr.RecordsQuarantined != 0 {
		t.Errorf("RecordsQuarantined = %d, want 0 (a zero-length header is torn, not corrupt)", rr.RecordsQuarantined)
	}
	if want := int64(len(zero) + len(stranded)); rr.TruncatedBytes != want {
		t.Errorf("TruncatedBytes = %d, want %d", rr.TruncatedBytes, want)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// After repair and compaction the store scrubs clean.
	rep, err := Scrub(filepath.Join(dir, "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Errorf("store not clean after zero-length tail repair: %+v", rep)
	}
}

// TestDurableTruncatedCRCOnlyFrame crashes the log mid-header: the
// tail holds the length prefix but only part (or none) of the CRC —
// fewer than the 8 header bytes a frame needs. Every such tail length
// must salvage cleanly.
func TestDurableTruncatedCRCOnlyFrame(t *testing.T) {
	for tail := 1; tail < walHeaderSize; tail++ {
		t.Run(fmt.Sprintf("tail-%d-bytes", tail), func(t *testing.T) {
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
			// A plausible length prefix whose CRC (and payload) never made
			// it to disk.
			header := make([]byte, walHeaderSize)
			binary.LittleEndian.PutUint32(header[0:4], 64)
			binary.LittleEndian.PutUint32(header[4:8], 0xdeadbeef)
			torn := append(append([]byte(nil), good...), header[:tail]...)
			if err := os.WriteFile(walPath, torn, 0o644); err != nil {
				t.Fatal(err)
			}

			d2 := openDurable(t, dir, DurableOptions{})
			rr := d2.Recovery()
			if rr.RecordsReplayed != 2 || rr.Entries != 2 {
				t.Errorf("replayed %d records into %d entries, want 2/2", rr.RecordsReplayed, rr.Entries)
			}
			if rr.TruncatedBytes != int64(tail) {
				t.Errorf("TruncatedBytes = %d, want %d", rr.TruncatedBytes, tail)
			}
			if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(len(good)) {
				t.Errorf("wal size after repair = %v (err %v), want %d", fi, err, len(good))
			}
			// The repaired log keeps accepting acknowledged appends.
			if err := d2.Store().Put(entry("after", "d")); err != nil {
				t.Fatal(err)
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3 := openDurable(t, dir, DurableOptions{})
			defer d3.Close()
			if d3.Store().Len() != 3 {
				t.Errorf("entries after repair = %d, want 3", d3.Store().Len())
			}
		})
	}
}
