package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
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
					_, err = st.SaveCheckpoint(rec.Key, rec.Data)
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

// FuzzPutFrame: a put frame is written without encoding/json, and a
// disk fault is keyed by a hash of the frame's bytes, so one byte that
// differs from json.Marshal's moves fault decisions as well as
// digests. Whatever the entry holds, the walEncoder's frame must equal
// the reference encoder's byte for byte, or both must fail. config is
// a comma-separated list of keys; values gives the ith key's float as
// little-endian bits, eight bytes a key (float64(i) past its end).
func FuzzPutFrame(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var b []byte
		for _, v := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("IC/layers=18", "i7", "cores,infer_batch", bits(2, 8), 42.5, 0.125, 0.01, 1.5, 24, false)
	f.Add("s", "d", "tiny,huge", bits(1e-7, 1e21), 1e-7, 1e21, math.Copysign(0, -1), 5e-324, 3, false)
	f.Add("s", "d", "a", bits(math.Copysign(0, -1)), 5e-324, 1e20, 9.999999e-7, -1e-300, -7, false)
	f.Add("s", "d", "nan", bits(math.NaN()), 1.0, 2.0, 3.0, 4.0, 0, false)
	f.Add("s", "d", "", []byte(nil), math.NaN(), 0.0, 0.0, 0.0, 0, false)
	f.Add("tune/<IC>&b", "d\u2028", "a<b,c&d", bits(1, 2), 1.0, 2.0, 3.0, 4.0, 1, false)
	f.Add("s", "d", "", []byte(nil), 0.0, 0.0, 0.0, 0.0, 0, true)  // nil config
	f.Add("s", "d", "", []byte(nil), 0.0, 0.0, 0.0, 0.0, 0, false) // empty config
	f.Add("s", "d", "a,b,c,d,e,f,g,h,i,j", bits(1, 2, 3), 1.0, 2.0, 3.0, 4.0, 9, false)

	f.Fuzz(func(t *testing.T, sig, dev, config string, values []byte,
		throughput, energy, latency, objective float64, trials int, nilConfig bool) {
		e := Entry{Signature: sig, Device: dev, Throughput: throughput, EnergyPerSampleJ: energy,
			LatencySeconds: latency, Objective: objective, TrialsRun: trials}
		if !nilConfig {
			e.Config = search.Config{}
			if config != "" {
				for i, k := range strings.Split(config, ",") {
					v := float64(i)
					if len(values) >= 8*(i+1) {
						v = math.Float64frombits(binary.LittleEndian.Uint64(values[8*i:]))
					}
					e.Config[k] = v
				}
			}
		}
		rec := walRecord{Op: walOpPut, Entry: &e}
		ref, refErr := encodeWALRecord(rec)
		enc := newWALEncoder()
		err := enc.add(rec)
		switch {
		case (err != nil) != (refErr != nil):
			t.Fatalf("encoder error %v, reference error %v, for %+v", err, refErr, e)
		case err != nil:
			if enc.frames() != 0 || enc.buf.Len() != 0 {
				t.Fatalf("a failed add left %d frames, %d bytes", enc.frames(), enc.buf.Len())
			}
		case !bytes.Equal(enc.frame(0), ref):
			t.Fatalf("frame differs from the reference for %+v:\ngot  %q\nwant %q", e, enc.frame(0), ref)
		}
	})
}
