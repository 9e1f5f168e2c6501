package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgetune/internal/search"
)

// encodeWALRecord is the reference framing: json.Marshal's payload in a
// frame of its own. The store's walEncoder must write exactly these
// bytes.
func encodeWALRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: marshal wal record: %w", err)
	}
	frame := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[walHeaderSize:], payload)
	return frame, nil
}

// frameCopier keeps a copy of every frame shipped to it.
type frameCopier [][]byte

func (c *frameCopier) Ship(_ int64, frame []byte) {
	*c = append(*c, append([]byte(nil), frame...))
}

// TestWALEncoderWritesReferenceBytes drives each record sequence through
// one durable store and holds every shipped frame, and the log file, to
// the reference encoder's bytes: HTML characters and U+2028 escaped as
// json.Marshal escapes them, a blob's whitespace compacted away, and no
// bytes of a large frame left behind in the smaller one after it.
func TestWALEncoderWritesReferenceBytes(t *testing.T) {
	large := json.RawMessage(`{"trials":[` + strings.Repeat(`{"score": 0.125, "config": {"lr": 0.01}},`, 500) + `{}]}`)
	odd := "tune/<IC>&b\u2028=1"
	cases := []struct {
		name string
		recs []walRecord
	}{
		{"put", []walRecord{{Op: walOpPut, Entry: &Entry{Signature: "IC/layers=18", Device: "i7",
			Config: search.Config{"cores": 2, "infer_batch": 8}, Throughput: 42.5, TrialsRun: 24}}}},
		{"checkpoint", []walRecord{{Op: walOpCheckpoint, Key: "job", Data: json.RawMessage(`{"rung":2}`)}}},
		{"clear", []walRecord{{Op: walOpClear, Key: "job"}}},
		{"escaped key and blob", []walRecord{
			{Op: walOpPut, Entry: &Entry{Signature: odd, Device: "<d>&", Config: search.Config{"a<b": 1}}},
			{Op: walOpCheckpoint, Key: odd, Data: json.RawMessage("{\"note\": \"a<b> & c\u2028\"}")},
			{Op: walOpClear, Key: odd},
		}},
		{"large then small", []walRecord{
			{Op: walOpCheckpoint, Key: "job", Data: large},
			{Op: walOpCheckpoint, Key: "job", Data: json.RawMessage(`{"rung":3}`)},
			{Op: walOpPut, Entry: &Entry{Signature: "s", Device: "d", Config: search.Config{"cores": 1}}},
			{Op: walOpCheckpoint, Key: "job", Data: large},
			{Op: walOpClear, Key: "job"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var shipped frameCopier
			d := openDurable(t, dir, DurableOptions{Shipper: &shipped})
			st := d.Store()
			var want []byte
			for i, rec := range tc.recs {
				var err error
				switch rec.Op {
				case walOpPut:
					err = st.Put(*rec.Entry)
				case walOpCheckpoint:
					err = st.SaveCheckpoint(rec.Key, rec.Data)
				case walOpClear:
					st.ClearCheckpoint(rec.Key)
				}
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				ref, err := encodeWALRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				if i >= len(shipped) {
					t.Fatalf("record %d (%s) shipped no frame", i, rec.Op)
				}
				if got := shipped[i]; !bytes.Equal(got, ref) {
					at := 0
					for at < min(len(got), len(ref)) && got[at] == ref[at] {
						at++
					}
					t.Fatalf("record %d (%s): %d-byte frame differs from the %d-byte reference at byte %d",
						i, rec.Op, len(got), len(ref), at)
				}
				want = append(want, ref...)
			}
			got, err := os.ReadFile(filepath.Join(dir, "store.json.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("log is %d bytes, the reference frames %d: contents differ", len(got), len(want))
			}
			if err := d.Abandon(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
