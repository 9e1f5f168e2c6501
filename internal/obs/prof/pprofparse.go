package prof

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ProfileStrings extracts the string table of a pprof profile
// (gzip-compressed protobuf, the format runtime/pprof writes). Label
// keys and values live in that table, so checking a captured profile
// for the taxonomy's keys needs no full profile parser: a minimal
// top-level walk over the Profile message collecting field 6
// (string_table) is enough, and it stays stdlib-only.
func ProfileStrings(data []byte) ([]string, error) {
	data, err := inflate(data)
	if err != nil {
		return nil, err
	}
	var table []string
	err = fields(data, func(field uint64, _ uint64, b []byte) error {
		if field == 6 && b != nil { // Profile.string_table
			table = append(table, string(b))
		}
		return nil
	})
	return table, err
}

// LabelValues counts, in a pprof CPU profile, the samples whose stack
// passes through a function whose name contains function, by the value
// of their label key ("" where a sample has none): how one kind of work
// spreads over a label dimension, and how much of it the taxonomy
// misses. Counts are in the profile's first value (samples).
func LabelValues(data []byte, function, key string) (map[string]int64, error) {
	data, err := inflate(data)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		labels [][2]uint64 // key and string value, as string-table indices
		count  int64
	}
	var (
		table     []string
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]uint64{}   // function id -> name's string index
	)
	err = fields(data, func(field uint64, _ uint64, b []byte) error {
		switch {
		case b == nil:
			return nil
		case field == 6: // string_table
			table = append(table, string(b))
		case field == 2: // sample
			var s sample
			values := 0
			if err := fields(b, func(f uint64, v uint64, b []byte) error {
				switch {
				case f == 1 && b == nil: // location_id, unpacked
					s.locs = append(s.locs, v)
				case f == 1: // location_id, packed
					return packed(b, func(v uint64) { s.locs = append(s.locs, v) })
				case f == 2: // value: the first one is the sample count
					first := func(v uint64) {
						if values++; values == 1 {
							s.count = int64(v)
						}
					}
					if b == nil {
						first(v)
						return nil
					}
					return packed(b, first)
				case f == 3 && b != nil: // label
					var l [2]uint64
					err := fields(b, func(f uint64, v uint64, b []byte) error {
						if (f == 1 || f == 2) && b == nil {
							l[f-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case field == 4: // location
			var id uint64
			var funcs []uint64
			if err := fields(b, func(f uint64, v uint64, b []byte) error {
				switch {
				case f == 1 && b == nil:
					id = v
				case f == 4 && b != nil: // line
					return fields(b, func(f uint64, v uint64, b []byte) error {
						if f == 1 && b == nil {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = funcs
		case field == 5: // function
			var id, name uint64
			if err := fields(b, func(f uint64, v uint64, b []byte) error {
				if b == nil && f == 1 {
					id = v
				} else if b == nil && f == 2 {
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(table)) {
			return table[i]
		}
		return ""
	}
	counts := map[string]int64{}
	for _, s := range samples {
		through := false
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				through = through || strings.Contains(str(funcNames[fn]), function)
			}
		}
		if !through {
			continue
		}
		value := ""
		for _, l := range s.labels {
			if str(l[0]) == key {
				value = str(l[1])
			}
		}
		counts[value] += s.count
	}
	return counts, nil
}

// inflate undoes the gzip layer runtime/pprof wraps a profile in.
func inflate(data []byte) ([]byte, error) {
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		return data, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("prof: profile gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("prof: profile gunzip: %w", err)
	}
	return raw, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value (b nil) or its length-delimited
// payload; fixed-width fields, which the profile format does not use
// for anything read here, are skipped.
func fields(data []byte, fn func(field, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("prof: truncated protobuf tag")
		}
		data = data[n:]
		field, wire := key>>3, key&7
		switch wire {
		case 0: // varint
			v, n := uvarint(data)
			if n <= 0 {
				return errors.New("prof: truncated varint field")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1: // 64-bit
			if len(data) < 8 {
				return errors.New("prof: truncated fixed64 field")
			}
			data = data[8:]
		case 2: // length-delimited
			ln, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < ln {
				return errors.New("prof: truncated length-delimited field")
			}
			if err := fn(field, 0, data[n:n+int(ln):n+int(ln)]); err != nil {
				return err
			}
			data = data[n+int(ln):]
		case 5: // 32-bit
			if len(data) < 4 {
				return errors.New("prof: truncated fixed32 field")
			}
			data = data[4:]
		default:
			return fmt.Errorf("prof: unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// packed walks a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("prof: truncated packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// MissingStrings reports which of want are absent from the table.
func MissingStrings(table []string, want []string) []string {
	have := make(map[string]bool, len(table))
	for _, s := range table {
		have[s] = true
	}
	var missing []string
	for _, w := range want {
		if !have[w] {
			missing = append(missing, w)
		}
	}
	return missing
}

// uvarint decodes an unsigned varint, returning the value and byte
// count (0 when the buffer is truncated). A local copy instead of
// encoding/binary.Uvarint to keep the overflow semantics strict: more
// than 10 bytes is corruption, not a value.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
