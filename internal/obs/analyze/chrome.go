package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
)

// trackNames label the tracer's tracks (obs.TrackTuner, TrackServing,
// TrackStore and TrackCluster) as Chrome threads.
var trackNames = map[int]string{1: "model-tuning", 2: "inference-serving", 3: "historical-store", 4: "cluster"}

// Chrome converts a JSONL trace into the Chrome trace-event format
// (complete "X" events after one thread-name event per track), loadable
// in Perfetto. Timestamps are microseconds of simulated time; a span's
// args are its id, parent and attributes. Names and values keep their
// JSONL text, so the bytes are the tracer's own as Chrome events (an
// attribute key that is not UTF-8 is U+FFFD in the JSONL already). A
// line ParseJSONL counts as malformed is left out, and so is the
// {"dropped":N} line that ends a cut trace: it is no span.
func Chrome(w io.Writer, r io.Reader) error {
	type event struct {
		Name json.RawMessage `json:"name"`
		Cat  string          `json:"cat,omitempty"`
		Ph   string          `json:"ph"`
		TS   float64         `json:"ts"`
		Dur  float64         `json:"dur,omitempty"`
		PID  int             `json:"pid"`
		TID  int             `json:"tid"`
		Args map[string]any  `json:"args,omitempty"`
	}
	meta, events := []event{}, []event(nil) // an empty trace has "traceEvents":[]
	err := scan(r, &Trace{}, func(js *rawSpan) bool {
		if len(js.Name) <= 2 || js.Name[0] != '"' {
			return false // no name, as ParseJSONL reads it
		}
		args := make(map[string]any, len(js.Attrs)+2)
		args["id"] = js.ID
		if js.Parent != 0 {
			args["parent"] = js.Parent
		}
		for _, a := range js.Attrs {
			args[a.K] = a.V
		}
		if !slices.ContainsFunc(meta, func(e event) bool { return e.TID == js.Track }) {
			name, ok := trackNames[js.Track]
			if !ok {
				name = fmt.Sprintf("track-%d", js.Track)
			}
			meta = append(meta, event{Name: json.RawMessage(`"thread_name"`), Ph: "M", PID: 1, TID: js.Track,
				Args: map[string]any{"name": name}})
		}
		events = append(events, event{Name: js.Name, Cat: "edgetune", Ph: "X",
			TS: float64(js.Start) / 1e3, Dur: float64(js.Dur) / 1e3, PID: 1, TID: js.Track, Args: args})
		return true
	})
	if err != nil {
		return err
	}
	sort.Slice(meta, func(i, j int) bool { return meta[i].TID < meta[j].TID })
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []event `json:"traceEvents"`
	}{append(meta, events...)})
}
