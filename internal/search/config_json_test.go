package search

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fuzzConfig builds the config a FuzzConfigJSON input names: nil, or
// one key per NUL-separated part of keys (none for an empty keys), the
// ith valued by the ith eight bytes of vals as float64 bits, or 0 past
// their end.
func fuzzConfig(isNil bool, keys string, vals []byte) Config {
	if isNil {
		return nil
	}
	c := Config{}
	if keys == "" {
		return c
	}
	for i, k := range strings.Split(keys, "\x00") {
		v := 0.0
		if 8*i+8 <= len(vals) {
			v = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))
		}
		c[k] = v
	}
	return c
}

// FuzzConfigJSON: a Config encodes to the bytes json.Marshal writes for
// it as a map[string]float64, through MarshalJSON called directly and
// through encoding/json, or all of them fail; and AppendJSON, where it
// reports true, appends those bytes.
func FuzzConfigJSON(f *testing.F) {
	seed := func(isNil bool, keys []string, vals ...float64) {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(isNil, strings.Join(keys, "\x00"), b)
	}
	seed(true, nil)
	seed(false, nil)
	seed(false, []string{"batch", "cores", "freq"}, 32, 4, 1.8)
	seed(false, []string{"nan"}, math.NaN())
	seed(false, []string{"inf", "x"}, 1, math.Inf(1))
	seed(false, []string{"-inf"}, math.Inf(-1))
	seed(false, []string{"negzero"}, math.Copysign(0, -1))
	seed(false, []string{"tiny", "small", "big", "bigger"}, 5e-324, 1e-7, 1e21, -1.2345678901234567e300)
	seed(false, []string{"edge"}, -0.0000012345678901234567)
	seed(false, []string{"a<b", "c>d", "e&f"}, 1, 2, 3)
	seed(false, []string{"line\u2028sep", "para\u2029sep"}, 1, 2)
	seed(false, []string{`q"uote`, `back\slash`, "tab\t", "\xff"}, 1, 2, 3, 4)
	seed(false, []string{"", "k"}, 1, 2)
	seed(false, []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10"},
		0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	f.Fuzz(func(t *testing.T, isNil bool, keys string, vals []byte) {
		c := fuzzConfig(isNil, keys, vals)
		want, wantErr := json.Marshal(map[string]float64(c))
		direct, directErr := c.MarshalJSON()
		through, throughErr := json.Marshal(c)
		if (wantErr == nil) != (directErr == nil) || (wantErr == nil) != (throughErr == nil) {
			t.Fatalf("%#v: json.Marshal of the map errs %v, MarshalJSON %v, json.Marshal of the Config %v",
				c, wantErr, directErr, throughErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(direct, want) || !bytes.Equal(through, want) {
			t.Fatalf("%#v: MarshalJSON wrote %s and json.Marshal of the Config %s, json.Marshal of the map %s",
				c, direct, through, want)
		}
		prefix := []byte("x")
		if got, ok := c.AppendJSON(prefix); ok && !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("%#v: AppendJSON appended %s, json.Marshal of the map writes %s", c, got[1:], want)
		}
	})
}

// TestConfigMarshalAllocatesItsResult: a config of a space's few
// parameters marshals in one allocation, the bytes it returns.
func TestConfigMarshalAllocatesItsResult(t *testing.T) {
	c := Config{"batch": 32, "cores": 4, "freq": 1.8, "layers": 50, "stride": 1e-7}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = c.MarshalJSON() }); allocs != 1 {
		t.Errorf("MarshalJSON allocates %.0f times, want 1", allocs)
	}
}
