package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"edgetune/internal/obs/analyze"
)

// writeChromeDirect is the reference for analyze.Chrome: the tracer's
// own Chrome exporter before the Chrome view was made a conversion of
// the JSONL, which encoded every span's args as a map.
func writeChromeDirect(t *Tracer, w io.Writer) error {
	type chromeEvent struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	trackNames := map[int]string{
		TrackTuner:   "model-tuning",
		TrackServing: "inference-serving",
		TrackStore:   "historical-store",
		TrackCluster: "cluster",
	}
	recs, _ := t.sorted()
	tracks := map[int]bool{}
	events := make([]chromeEvent, 0, len(recs)+2)
	for _, rec := range recs {
		tracks[rec.Track] = true
		args := make(map[string]any, len(rec.Attrs)+2)
		args["id"] = rec.ID
		if rec.Parent != 0 {
			args["parent"] = rec.Parent
		}
		for _, a := range rec.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: rec.Name,
			Cat:  "edgetune",
			Ph:   "X",
			TS:   float64(rec.Start) / 1e3,
			Dur:  float64(rec.Dur) / 1e3,
			PID:  1,
			TID:  rec.Track,
			Args: args,
		})
	}
	ids := make([]int, 0, len(tracks))
	for id := range tracks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	meta := make([]chromeEvent, 0, len(ids))
	for _, id := range ids {
		name := trackNames[id]
		if name == "" {
			name = fmt.Sprintf("track-%d", id)
		}
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": name},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{append(meta, events...)})
}

// checkChrome fails t unless the Chrome view of tr's JSONL export is
// the reference's bytes.
func checkChrome(t *testing.T, tr *Tracer) {
	t.Helper()
	var want bytes.Buffer
	if err := writeChromeDirect(tr, &want); err != nil {
		t.Fatal(err)
	}
	if _, got := exports(t, tr); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Chrome view differs from the direct export:\n got %s\nwant %s", got, want.Bytes())
	}
}

// TestChromeMatchesDirectExport: the Chrome view keeps every attribute
// value's JSONL text, integers past 2^53 and strings encoding/json
// escapes included, and orders and replaces args as a map does.
func TestChromeMatchesDirectExport(t *testing.T) {
	tr := NewTracer()
	for i, a := range edgeAttrs {
		sp := tr.Root(TrackServing, "attr", uint64(i), time.Duration(i)*time.Microsecond, a)
		sp.Leaf("leaf \"quoted\" <name>\xff", 0, time.Duration(i)*time.Nanosecond, a)
		sp.End(time.Duration(i+1) * time.Millisecond)
	}
	tr.Root(TrackTuner, "all", 0, 0, edgeAttrs...).End(time.Second)
	tr.Root(TrackCluster+3, "unknown track", 1, -time.Second,
		Int("big", 1<<60+1), Str("id", "replaces the id"), Int("parent", 3), Str("", "empty key"),
		Str("b", "first"), Str("a", "\u2028<&>"), Str("b", "second")).End(0)
	checkChrome(t, tr)
	checkChrome(t, NewTracer())
}

// FuzzChromeJSONL: the Chrome view of a traced span, whatever its name,
// track and attributes of all four kinds, is the direct export's bytes;
// and any bytes at all, as a trace, are read by ParseJSONL and
// converted by analyze.Chrome without a panic, into valid JSON.
func FuzzChromeJSONL(f *testing.F) {
	f.Add("tune", TrackTuner, "config", "b32", int64(1)<<60+1, 0.91, true,
		[]byte(`{"id":1,"name":"tune","track":1,"startNs":0,"durNs":5,"attrs":[{"k":"n","v":1152921504606846977}]}`))
	f.Add("request <&>\u2028", TrackServing, "id", "a\xffb", int64(math.MinInt64), 1e21, false,
		[]byte("{\"id\":1,\"name\":\"x\"}\n{\"name\":5}\n{\"name\":\"y\",\"attrs\":[{\"k\":\"\\u00e9\",\"v\":null},{}]}\n"))
	f.Add("\xff", -1, "", "", int64(0), math.Copysign(0, -1), true, []byte(`{"name":"a","attrs":[{"k":1}]}`))
	f.Add("store-write", TrackStore, "parent", "x", int64(-7), 5e-324, false, []byte("{\"name\":\"a\"\n\n"))
	f.Fuzz(func(t *testing.T, name string, track int, key, s string, i int64, fl float64, b bool, raw []byte) {
		if _, err := analyze.ParseJSONL(bytes.NewReader(raw)); err != nil {
			t.Skip("longer than a trace line may be")
		}
		var out bytes.Buffer
		if err := analyze.Chrome(&out, bytes.NewReader(raw)); err != nil {
			t.Fatalf("ParseJSONL reads %q, Chrome fails: %v", raw, err)
		}
		if !json.Valid(out.Bytes()) {
			t.Fatalf("Chrome view of %q is not JSON: %s", raw, out.Bytes())
		}

		if name == "" {
			name = "span" // ParseJSONL counts a nameless span as malformed
		}
		// A key that is not UTF-8 reaches the JSONL as U+FFFD, where it
		// can no longer be told from another such key.
		key, sKey := strings.ToValidUTF8(key, "\uFFFD"), strings.ToValidUTF8(s, "\uFFFD")
		tr := NewTracer()
		start := time.Duration(i)
		root := tr.Root(track, name, 0, start, Str(key, s), Int(key, i), Float(key+"f", fl), Bool(key+"b", b))
		root.Child("child "+s, start+1, Str("id", name), Int("parent", i)).End(start)
		root.Leaf(name, start, start+time.Duration(track), Float(key, fl), Bool("b", b), Str(sKey, key))
		root.Epochs("epoch "+key, start, start+time.Duration(i%1000), 2, name, 3, 2)
		root.End(start + time.Millisecond)
		var jsonl bytes.Buffer
		if err := tr.WriteJSONL(&jsonl); err != nil {
			if writeChromeDirect(tr, io.Discard) == nil {
				t.Fatalf("the JSONL export fails (%v), the direct Chrome export does not", err)
			}
			return // NaN or ±Inf: neither export writes it
		}
		checkChrome(t, tr)
	})
}
