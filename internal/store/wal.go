package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"

	"edgetune/internal/jsonenc"
)

// The write-ahead log is a flat sequence of length-prefixed,
// CRC-checksummed records:
//
//	offset 0: uint32 little-endian payload length
//	offset 4: uint32 little-endian CRC-32 (IEEE) of the payload
//	offset 8: payload — one JSON walRecord
//
// Appends are fsynced before the mutation is acknowledged, so every
// record a caller saw succeed is on disk. Recovery scans the log
// front-to-back: a record whose checksum fails (bit flip on flash) is
// quarantined and skipped, a record whose framing runs past the end of
// the file (torn write at power loss) ends the scan and the tail is
// truncated. Recovery therefore never rejects a log — it salvages the
// longest sane prefix and reports what it could not keep.

// walOp names one mutation kind.
type walOp string

const (
	walOpPut        walOp = "put"
	walOpCheckpoint walOp = "checkpoint"
	walOpClear      walOp = "clear-checkpoint"
)

// walRecord is one logged mutation.
type walRecord struct {
	Op    walOp           `json:"op"`
	Entry *Entry          `json:"entry,omitempty"`
	Key   string          `json:"key,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

const (
	walHeaderSize = 8
	// maxWALRecord bounds a single record; a length prefix beyond it is
	// framing corruption, not a real record.
	maxWALRecord = 16 << 20
)

// walEncoder frames records for appending into one buffer it reuses,
// so an append allocates no frame of its own. A group commit frames
// all its records into the buffer, one after another, before it writes
// any. The payload is what json.Marshal writes (an Encoder with its
// defaults writes the same bytes, plus a newline it drops), so the
// format is encoding/json's.
type walEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
	// rec holds the record while it is encoded: Encode takes a pointer
	// into the encoder instead of one to a record boxed per call.
	rec walRecord
	// ends marks where each frame added since the last reset ends in buf.
	ends []int
}

func newWALEncoder() *walEncoder {
	w := &walEncoder{}
	w.enc = json.NewEncoder(&w.buf)
	return w
}

// reset empties the buffer for the next group of frames.
func (w *walEncoder) reset() {
	w.buf.Reset()
	w.ends = w.ends[:0]
}

// frames reports how many frames the buffer holds.
func (w *walEncoder) frames() int { return len(w.ends) }

// frame returns the ith frame in the buffer. It is the encoder's own
// memory: valid until the next add or reset, and a caller that keeps it
// copies it.
func (w *walEncoder) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = w.ends[i-1]
	}
	return w.buf.Bytes()[start:w.ends[i]]
}

// add encodes rec as one length-prefixed, checksummed frame after the
// frames already in the buffer. rec's bytes are not retained. On error
// the buffer is as it was.
//
// A checkpoint record whose key and blob hold nothing encoding/json
// escapes is written directly: the record's fields in order, the key
// as it stands, the blob compacted. That is json.Marshal's payload for
// it, without the round trip of a ≈ 20 KB blob through encoding/json's
// pooled encode state, which the collector empties.
//
// A put record is written directly too (addPut), unless its entry
// holds a string encoding/json escapes or a float it rejects.
func (w *walEncoder) add(rec walRecord) error {
	var header [walHeaderSize]byte // length and CRC, filled in below
	start := w.buf.Len()
	w.buf.Write(header[:])
	switch {
	case rec.Op == walOpPut && rec.Entry != nil && rec.Key == "" && rec.Data == nil && w.addPut(rec.Entry):
	case rec.Op == walOpCheckpoint && rec.Key != "" && jsonenc.Plain(rec.Key) && plainBlob(rec.Data):
		w.buf.WriteString(`{"op":"checkpoint","key":"`)
		w.buf.WriteString(rec.Key)
		w.buf.WriteString(`","data":`)
		if err := json.Compact(&w.buf, rec.Data); err != nil {
			w.buf.Truncate(start)
			return fmt.Errorf("store: marshal wal record: %w", err)
		}
		w.buf.WriteByte('}')
	default:
		w.rec = rec
		err := w.enc.Encode(&w.rec)
		w.rec = walRecord{}
		if err != nil {
			w.buf.Truncate(start)
			return fmt.Errorf("store: marshal wal record: %w", err)
		}
		w.buf.Truncate(w.buf.Len() - 1) // Encode's trailing newline
	}
	frame := w.buf.Bytes()[start:]
	payload := frame[walHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	w.ends = append(w.ends, w.buf.Len())
	return nil
}

// addPut writes the payload json.Marshal writes for a put record of e
// — its fields in struct order, the config's keys sorted
// (search.Config.AppendJSON) — without encoding/json's reflection over
// the entry and its map. It writes nothing and reports false when a
// string of e is not jsonenc.Plain or a float is not finite: the
// encoder then escapes the one and rejects the other.
func (w *walEncoder) addPut(e *Entry) bool {
	var cfgBuf [256]byte // a space's few names and values: no heap
	cfg, ok := e.Config.AppendJSON(cfgBuf[:0])
	if !ok || !jsonenc.Plain(e.Signature) || !jsonenc.Plain(e.Device) || !jsonenc.Finite(e.Throughput) ||
		!jsonenc.Finite(e.EnergyPerSampleJ) || !jsonenc.Finite(e.LatencySeconds) || !jsonenc.Finite(e.Objective) {
		return false
	}
	var num [32]byte
	w.buf.WriteString(`{"op":"put","entry":{"signature":"`)
	w.buf.WriteString(e.Signature)
	w.buf.WriteString(`","device":"`)
	w.buf.WriteString(e.Device)
	w.buf.WriteString(`","config":`)
	w.buf.Write(cfg)
	w.buf.WriteString(`,"throughput":`)
	w.buf.Write(jsonenc.AppendFloat(num[:0], e.Throughput))
	w.buf.WriteString(`,"energyPerSampleJoules":`)
	w.buf.Write(jsonenc.AppendFloat(num[:0], e.EnergyPerSampleJ))
	w.buf.WriteString(`,"latencySeconds":`)
	w.buf.Write(jsonenc.AppendFloat(num[:0], e.LatencySeconds))
	w.buf.WriteString(`,"objective":`)
	w.buf.Write(jsonenc.AppendFloat(num[:0], e.Objective))
	w.buf.WriteString(`,"trialsRun":`)
	w.buf.Write(strconv.AppendInt(num[:0], int64(e.TrialsRun), 10))
	w.buf.WriteString("}}")
	return true
}

// plainBlob reports whether encoding/json writes the raw JSON blob as
// json.Compact does: no HTML character to escape, and no 0xE2 byte,
// which starts U+2028 and U+2029, the two line separators it escapes.
func plainBlob(blob []byte) bool {
	for _, c := range blob {
		if c == '<' || c == '>' || c == '&' || c == 0xE2 {
			return false
		}
	}
	return true
}

// walScan is the salvage report of one log scan.
type walScan struct {
	// Records are the decoded, checksum-valid records in log order.
	Records []walRecord
	// Quarantined holds the raw frames of records whose checksum or
	// JSON was bad; they are preserved (never silently deleted) so an
	// operator can inspect them.
	Quarantined [][]byte
	// ValidEnd is the byte offset of the end of the last record the
	// scan accepted (including quarantined ones — their framing was
	// intact); everything past it is a torn tail.
	ValidEnd int64
	// TruncatedBytes counts the torn-tail bytes past ValidEnd.
	TruncatedBytes int64
}

// scanWAL walks the log, salvaging the longest well-framed prefix.
func scanWAL(data []byte) walScan {
	var sc walScan
	off := 0
	for off+walHeaderSize <= len(data) {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length == 0 || length > maxWALRecord || off+walHeaderSize+length > len(data) {
			// Implausible or overrunning frame: a torn append (or a bit
			// flip in the length prefix, indistinguishable from one).
			break
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+length]
		next := off + walHeaderSize + length
		if crc32.ChecksumIEEE(payload) != sum {
			sc.Quarantined = append(sc.Quarantined, append([]byte(nil), data[off:next]...))
			off = next
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil || !validWALRecord(rec) {
			// Checksum matched but the content is not a record we can
			// apply (version skew, hand-edited log): quarantine, not
			// fatal.
			sc.Quarantined = append(sc.Quarantined, append([]byte(nil), data[off:next]...))
			off = next
			continue
		}
		sc.Records = append(sc.Records, rec)
		off = next
	}
	sc.ValidEnd = int64(off)
	sc.TruncatedBytes = int64(len(data)) - sc.ValidEnd
	return sc
}

// validWALRecord rejects decoded records that cannot be applied.
func validWALRecord(rec walRecord) bool {
	switch rec.Op {
	case walOpPut:
		return rec.Entry != nil && rec.Entry.Signature != "" && rec.Entry.Device != ""
	case walOpCheckpoint:
		return rec.Key != "" && json.Valid(rec.Data)
	case walOpClear:
		return rec.Key != ""
	default:
		return false
	}
}
