package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
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
// so an append allocates no frame of its own. The payload is what
// json.Marshal writes (an Encoder with its defaults writes the same
// bytes, plus a newline it drops), so the format is encoding/json's.
type walEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
	// rec holds the record while it is encoded: Encode takes a pointer
	// into the encoder instead of one to a record boxed per call.
	rec walRecord
}

func newWALEncoder() *walEncoder {
	w := &walEncoder{}
	w.enc = json.NewEncoder(&w.buf)
	return w
}

// frame encodes rec as one length-prefixed, checksummed frame. The
// frame is the encoder's own buffer: it is valid until the next call,
// and a caller that keeps it copies it. rec's bytes are not retained.
//
// A checkpoint record whose key and blob hold nothing encoding/json
// escapes is written directly: the record's fields in order, the key
// as it stands, the blob compacted. That is json.Marshal's payload for
// it, without the round trip of a ≈ 20 KB blob through encoding/json's
// pooled encode state, which the collector empties.
func (w *walEncoder) frame(rec walRecord) ([]byte, error) {
	var header [walHeaderSize]byte // length and CRC, filled in below
	w.buf.Reset()
	w.buf.Write(header[:])
	if rec.Op == walOpCheckpoint && rec.Key != "" && plainKey(rec.Key) && plainBlob(rec.Data) {
		w.buf.WriteString(`{"op":"checkpoint","key":"`)
		w.buf.WriteString(rec.Key)
		w.buf.WriteString(`","data":`)
		if err := json.Compact(&w.buf, rec.Data); err != nil {
			return nil, fmt.Errorf("store: marshal wal record: %w", err)
		}
		w.buf.WriteByte('}')
	} else {
		w.rec = rec
		err := w.enc.Encode(&w.rec)
		w.rec = walRecord{}
		if err != nil {
			return nil, fmt.Errorf("store: marshal wal record: %w", err)
		}
		w.buf.Truncate(w.buf.Len() - 1) // Encode's trailing newline
	}
	frame := w.buf.Bytes()
	payload := frame[walHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// plainKey reports whether encoding/json writes key as it stands:
// printable ASCII without a quote, a backslash or an HTML character.
func plainKey(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
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
