package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"edgetune/internal/search"
)

// walRecordsFrom turns arbitrary bytes into valid records, three bytes
// a record (sixteen at most: an execution stays cheap), so the fuzzer
// also explores the logs the store writes itself.
func walRecordsFrom(data []byte) []walRecord {
	var recs []walRecord
	for data = data[:min(len(data), 3*16)]; len(data) >= 3; data = data[3:] {
		key := fmt.Sprintf("k%d", data[1])
		switch data[0] % 3 {
		case 0:
			recs = append(recs, walRecord{Op: walOpPut, Entry: &Entry{
				Signature:  key,
				Device:     fmt.Sprintf("d%d", data[2]),
				Config:     search.Config{"infer_batch": float64(data[2])},
				Throughput: float64(data[1]) / 4,
				TrialsRun:  int(data[2]),
			}})
		case 1:
			recs = append(recs, walRecord{Op: walOpCheckpoint, Key: key,
				Data: json.RawMessage(fmt.Sprintf(`{"rung":%d}`, data[2]))})
		case 2:
			recs = append(recs, walRecord{Op: walOpClear, Key: key})
		}
	}
	return recs
}

func walFrames(t testing.TB, recs []walRecord) []byte {
	t.Helper()
	var log []byte
	for _, rec := range recs {
		frame, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatalf("encode %+v: %v", rec, err)
		}
		log = append(log, frame...)
	}
	return log
}

// FuzzScanWAL: the log decoder reads whatever a crash left on disk. On
// any bytes it must not panic, its salvage report must add up, a second
// scan of what it kept must keep all of it (what makes a second recovery
// a no-op), and everything it accepts must be appliable and loggable
// again; and a log the store wrote itself is accepted whole.
func FuzzScanWAL(f *testing.F) {
	clean := walFrames(f, []walRecord{
		{Op: walOpPut, Entry: &Entry{Signature: "IC/layers=18", Device: "i7", Config: search.Config{"cores": 2}}},
		{Op: walOpCheckpoint, Key: "job", Data: json.RawMessage(`{"rung":2}`)},
		{Op: walOpClear, Key: "job"},
	})
	flipped := append([]byte(nil), clean...)
	flipped[walHeaderSize+3] ^= 0x40
	overrun := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(overrun[0:4], uint32(len(clean)))
	f.Add(clean)
	f.Add(clean[:len(clean)-5]) // torn tail
	f.Add(flipped)              // one payload byte flipped
	f.Add(overrun)              // length prefix past the end
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := scanWAL(data)

		if sc.ValidEnd < 0 || sc.ValidEnd+sc.TruncatedBytes != int64(len(data)) {
			t.Fatalf("ValidEnd %d + TruncatedBytes %d != %d bytes scanned", sc.ValidEnd, sc.TruncatedBytes, len(data))
		}
		// The kept prefix is exactly the accepted and quarantined frames,
		// back to back: walking it by length prefix counts them all and
		// lands on ValidEnd, and the quarantined ones are their bytes.
		frames, quarantined, off := 0, 0, int64(0)
		for off < sc.ValidEnd {
			next := off + walHeaderSize + int64(binary.LittleEndian.Uint32(data[off:off+4]))
			if next > sc.ValidEnd {
				t.Fatalf("frame at %d runs to %d, past ValidEnd %d", off, next, sc.ValidEnd)
			}
			if quarantined < len(sc.Quarantined) && bytes.Equal(sc.Quarantined[quarantined], data[off:next]) {
				quarantined++
			}
			frames++
			off = next
		}
		if frames != len(sc.Records)+len(sc.Quarantined) || quarantined != len(sc.Quarantined) {
			t.Fatalf("%d frames (%d of them the quarantined bytes) before ValidEnd; scan reports %d accepted + %d quarantined",
				frames, quarantined, len(sc.Records), len(sc.Quarantined))
		}

		again := scanWAL(data[:sc.ValidEnd])
		if again.TruncatedBytes != 0 || again.ValidEnd != sc.ValidEnd ||
			!reflect.DeepEqual(again.Records, sc.Records) || !reflect.DeepEqual(again.Quarantined, sc.Quarantined) {
			t.Fatalf("salvage is not idempotent:\nfirst  %+v\nsecond %+v", sc, again)
		}

		for _, rec := range sc.Records {
			if !validWALRecord(rec) {
				t.Fatalf("accepted a record that cannot be applied: %+v", rec)
			}
			if _, err := encodeWALRecord(rec); err != nil {
				t.Fatalf("accepted a record that cannot be logged again: %+v: %v", rec, err)
			}
		}

		recs := walRecordsFrom(data)
		own := scanWAL(walFrames(t, recs))
		if len(own.Quarantined) != 0 || own.TruncatedBytes != 0 || !reflect.DeepEqual(own.Records, recs) {
			t.Fatalf("a log of %d valid records came back as %d accepted, %d quarantined, %d bytes truncated",
				len(recs), len(own.Records), len(own.Quarantined), own.TruncatedBytes)
		}
	})
}
