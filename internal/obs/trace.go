// Package obs is the observability substrate of the tuning and serving
// pipeline: a seeded-deterministic span tracer and a unified metrics
// registry, both stdlib-only.
//
// Determinism contract: spans carry simulated-clock timestamps supplied
// explicitly by the instrumentation sites (never wall-clock reads), and
// span IDs are derived structurally — a root span's ID hashes its name
// and a caller-supplied deterministic index (the tuner's seed, the
// server's submission sequence), a child's ID hashes its parent's ID,
// its name, and its per-parent creation index. Exports sort spans by
// (start, ID), so two same-seed runs emit byte-identical trace files
// even though concurrent goroutines append to the buffer in arbitrary
// order. The one requirement on callers is that the children of any
// single span are created from one goroutine at a time (the pipeline
// guarantees this: tuner-side spans belong to the tuning loop, each
// request's serving spans to the worker that owns the request).
//
// Every hook is nil-safe: methods on a nil *Tracer or nil *Span are
// no-ops, so disabled tracing costs a single pointer check on the hot
// path (see BenchmarkTracingDisabled).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgetune/internal/sim"
)

// Tracks group spans into Perfetto threads: the tuning loop and the
// inference serving path render as separate swim lanes.
const (
	TrackTuner     = 1
	TrackServing   = 2
	TrackStore     = 3
	TrackCluster   = 4
	TrackAutoscale = 5
)

// trackNames label the tracks in the Chrome trace metadata.
var trackNames = map[int]string{
	TrackTuner:     "model-tuning",
	TrackServing:   "inference-serving",
	TrackStore:     "historical-store",
	TrackCluster:   "cluster",
	TrackAutoscale: "autoscale",
}

// SpanID identifies a span; 0 means "no parent".
type SpanID uint64

// Attr is one typed span attribute. Values are restricted to string,
// int64, float64, and bool by the constructors so serialisation is
// total and deterministic.
type Attr struct {
	Key   string
	Value any
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// maxSpans bounds the in-memory buffer; a runaway instrumentation site
// drops spans (counted) instead of exhausting memory.
const maxSpans = 4 << 20

// spanRecord is one finished span as buffered and exported.
type spanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Track  int    `json:"track"`
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// MarshalJSON renders an Attr as a compact {"k":...,"v":...} object.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		K string `json:"k"`
		V any    `json:"v"`
	}{a.Key, a.Value})
}

// UnmarshalJSON accepts the same {"k","v"} shape (tests round-trip).
func (a *Attr) UnmarshalJSON(data []byte) error {
	var raw struct {
		K string `json:"k"`
		V any    `json:"v"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	a.Key, a.Value = raw.K, raw.V
	return nil
}

// Tracer collects finished spans. A nil *Tracer is a valid disabled
// tracer: all methods no-op. Safe for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	spans    []spanRecord
	dropped  int64
	observer func(name string, track int, start, dur time.Duration)
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is an in-progress span. A nil *Span no-ops, so instrumentation
// chains (root disabled → children disabled) need no guards.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	track  int
	start  time.Duration

	children atomic.Uint64

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Root starts a top-level span. index must be deterministic across
// same-seed runs (a seed, a submission sequence number): together with
// name it becomes the span's ID, which child IDs chain from.
func (t *Tracer) Root(track int, name string, index uint64, start time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := sim.HashUint64(sim.Hash64(name), index)
	return &Span{tr: t, id: nonzero(id), track: track, start: start, name: name, attrs: attrs}
}

// Child starts a span under sp. The child inherits the parent's track;
// its ID derives from (parent ID, name, per-parent creation index), so
// it is deterministic as long as sp's children are created from a
// single goroutine at a time.
func (sp *Span) Child(name string, start time.Duration, attrs ...Attr) *Span {
	if sp == nil {
		return nil
	}
	idx := sp.children.Add(1) - 1
	id := sim.HashUint64(sim.HashString(uint64(sp.id), name), idx)
	return &Span{tr: sp.tr, id: nonzero(id), parent: sp.id, track: sp.track, start: start, name: name, attrs: attrs}
}

// ID reports the span's deterministic identifier (0 for a nil span).
func (sp *Span) ID() SpanID {
	if sp == nil {
		return 0
	}
	return sp.id
}

// Set appends attributes to the span. The nil fast path inlines so a
// disabled span costs one pointer check (hot callers additionally guard
// attribute construction behind the same check).
func (sp *Span) Set(attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.set(attrs)
}

func (sp *Span) set(attrs []Attr) {
	sp.mu.Lock()
	if !sp.ended {
		sp.attrs = append(sp.attrs, attrs...)
	}
	sp.mu.Unlock()
}

// End finishes the span at the given simulated time and hands it to the
// tracer. End is idempotent; an end before the start is clamped to a
// zero duration.
func (sp *Span) End(end time.Duration) {
	if sp == nil {
		return
	}
	sp.end(end)
}

func (sp *Span) end(end time.Duration) {
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	attrs := sp.attrs
	sp.mu.Unlock()

	dur := end - sp.start
	if dur < 0 {
		dur = 0
	}
	sp.tr.emit(spanRecord{
		ID:     uint64(sp.id),
		Parent: uint64(sp.parent),
		Name:   sp.name,
		Track:  sp.track,
		Start:  int64(sp.start),
		Dur:    int64(dur),
		Attrs:  attrs,
	})
}

func (t *Tracer) emit(rec spanRecord) {
	t.mu.Lock()
	obsv := t.observer
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
	if obsv != nil {
		obsv(rec.Name, rec.Track, time.Duration(rec.Start), time.Duration(rec.Dur))
	}
}

// SetSpanObserver registers a callback invoked for every finished
// span (the flight recorder's span-completion feed). The observer runs
// outside the tracer's lock and must be cheap and lock-ordering safe;
// nil clears it. One observer per tracer: a shared tracer (cluster)
// cannot demultiplex spans per shard, so only single-job wiring
// attaches one.
func (t *Tracer) SetSpanObserver(fn func(name string, track int, start, dur time.Duration)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.observer = fn
	t.mu.Unlock()
}

// Len reports the number of finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped reports spans discarded by the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// sorted copies the buffer in deterministic (start, ID) order.
func (t *Tracer) sorted() []spanRecord {
	t.mu.Lock()
	out := make([]spanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSONL exports the trace as one JSON span per line, in
// deterministic order. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, rec := range t.sorted() {
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("obs: marshal span %d: %w", rec.ID, err)
		}
		bw.Write(data)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteChrome exports the trace in the Chrome trace-event format
// (complete "X" events plus thread-name metadata), loadable in Perfetto
// or chrome://tracing. Timestamps are microseconds of simulated time.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
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
	recs := t.sorted()
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
	// Thread-name metadata, in deterministic track order.
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
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{append(meta, events...)})
}

// SaveJSONL writes the JSONL export to path.
func (t *Tracer) SaveJSONL(path string) error { return t.save(path, t.WriteJSONL) }

// SaveChrome writes the Chrome trace-event export to path.
func (t *Tracer) SaveChrome(path string) error { return t.save(path, t.WriteChrome) }

func (t *Tracer) save(path string, write func(io.Writer) error) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func nonzero(h uint64) SpanID {
	if h == 0 {
		return 1
	}
	return SpanID(h)
}
