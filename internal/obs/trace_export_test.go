package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// marshalJSONL is the reference export: json.Marshal of every record,
// one line each, in export order.
func marshalJSONL(t *Tracer) ([]byte, error) {
	var buf bytes.Buffer
	recs, _ := t.sorted()
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("obs: marshal span %d: %w", rec.ID, err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// edgeAttrs are attribute values at the edges of encoding/json's
// rules: floats either side of its exponent-form thresholds, integer
// extremes, strings it escapes, and values the direct export leaves to
// it.
var edgeAttrs = []Attr{
	Float("zero", 0), Float("negzero", math.Copysign(0, -1)), Float("third", 1.0/3),
	Float("small", 1e-6), Float("smaller", 9.99e-7), Float("tiny", 1e-7), Float("subnormal", 5e-324),
	Float("big", 1e20), Float("bigger", 1e21), Float("huge", -1.5e300), Float("max", math.MaxFloat64),
	Float("negexp", -2.5e-10), Float("whole", 42),
	Int("min", math.MinInt64), Int("max", math.MaxInt64), Int("zero", 0),
	Bool("t", true), Bool("f", false),
	Str("empty", ""), Str("plain", "IC|b32 rung=2"), Str("quote", `say "hi"`), Str("backslash", `a\b`),
	Str("html", "<a&b>"), Str("newline", "a\nb"), Str("tab", "a\tb"), Str("nul", "a\x00b"),
	Str("unicode", "\u00b5s\u2192ok"), Str("separator", "a\u2028b"), Str("invalid", "a\xffb"), Str("del", "a\x7fb"),
	{Key: "a<key>", Value: "v"}, {Key: "é", Value: int64(1)},
	{Key: "int", Value: 7}, {Key: "nil", Value: nil}, {Key: "slice", Value: []int{1, 2}},
	{Key: "float32", Value: float32(0.1)}, {Key: "uint", Value: uint64(9)},
}

// TestWriteJSONLMatchesMarshal: the direct export writes, for every
// edge-case attribute alone and for all of them on one span, the bytes
// json.Marshal writes; the plain ones go the direct way; and NaN and
// ±Inf still fail the export with encoding/json's error.
func TestWriteJSONLMatchesMarshal(t *testing.T) {
	tr := NewTracer()
	for i, a := range edgeAttrs {
		sp := tr.Root(TrackServing, "attr", uint64(i), time.Duration(i)*time.Millisecond, a)
		sp.Child("child \"quoted\" <name>", time.Duration(i)*time.Millisecond).End(time.Duration(i+1) * time.Millisecond)
		sp.End(time.Duration(i+1) * time.Millisecond)
	}
	tr.Root(TrackTuner, "all", 0, 0, edgeAttrs...).End(time.Second)
	tr.Root(TrackTuner, "bare", 1, 0).End(0)

	var got bytes.Buffer
	if err := tr.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	want, err := marshalJSONL(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("export has %d lines, json.Marshal %d", len(gl), len(wl))
	}

	for _, a := range []Attr{Float("f", 0.25), Int("i", -3), Bool("b", true), Str("s", "plain")} {
		rec := spanRecord{ID: 1, Name: "span", Attrs: []Attr{a}}
		if _, ok := appendRecord(nil, &rec); !ok {
			t.Errorf("%s = %v went through json.Marshal", a.Key, a.Value)
		}
	}

	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := NewTracer()
		tr.Root(TrackTuner, "bad", 0, 0, Float("v", v)).End(0)
		_, want := marshalJSONL(tr)
		err := tr.WriteJSONL(&bytes.Buffer{})
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v: export error %v, json.Marshal's %v", v, err, want)
		}
	}
}
