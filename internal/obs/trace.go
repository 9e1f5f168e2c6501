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
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgetune/internal/sim"
)

// Tracks group spans into Perfetto threads: the tuning loop and the
// inference serving path render as separate swim lanes.
const (
	TrackTuner   = 1
	TrackServing = 2
	TrackStore   = 3
	TrackCluster = 4
)

// trackNames label the tracks in the Chrome trace metadata.
var trackNames = map[int]string{
	TrackTuner:   "model-tuning",
	TrackServing: "inference-serving",
	TrackStore:   "historical-store",
	TrackCluster: "cluster",
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
// drops spans (counted) instead of exhausting memory. Tests lower it.
var maxSpans = 4 << 20

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
//
// A finished span costs its record and its attributes, nothing more:
// records are kept in blocks, so the buffer grows without copying what
// it holds (see blocks). Attribute memory is owned as follows. A *Span
// keeps the slice passed to Root or Child, grown by Set, and its record
// keeps that slice at End, so a caller must not modify an attribute
// slice once passed. A leaf's attributes are copied into blocks the
// tracer owns, so the slice passed to Leaf or Steps is the caller's
// again when it returns. A step run costs one stepRun for all its
// leaves: they are built from it at export.
type Tracer struct {
	mu       sync.Mutex
	spans    blocks[spanRecord]
	attrs    blocks[Attr] // leaf attributes
	runs     blocks[stepRun]
	steps    int // leaves held in runs
	dropped  int64
	observer func(name string, track int, start, dur time.Duration)
}

// stepRun is the run of step leaves one Steps call records under its
// leaf, kept in 48 bytes. Every leaf of the run is a function of the
// run, its index and the leaf that holds it, so export builds them
// (appendLeaves) where Leaf would have kept a record and two attributes
// each.
type stepRun struct {
	at     int // the index, among the tracer's records, of the run's leaf
	name   string
	end    time.Duration
	n, per int
}

// groups is the number of leaves in the run: n steps, per to a leaf.
func (r *stepRun) groups() int { return (r.n-1)/r.per + 1 }

// span is the start and the duration of leaf g of the run's groups,
// which divide [start, r.end] evenly by the integer division a loop of
// Leaf calls over the same range does.
func (r *stepRun) span(start time.Duration, g, groups int) (time.Duration, time.Duration) {
	d := r.end - start
	gStart := start + time.Duration(g)*d/time.Duration(groups)
	gEnd := start + time.Duration(g+1)*d/time.Duration(groups)
	return gStart, clampedDur(gStart, gEnd)
}

// appendLeaves appends to dst the first len(attrs)/2 leaves of the run
// under leaf, as the Leaf calls of Steps' doc comment record them; the
// two attributes of each are written into attrs.
func (r *stepRun) appendLeaves(dst []spanRecord, leaf *spanRecord, attrs []Attr) []spanRecord {
	groups := r.groups()
	h := sim.HashString(leaf.ID, r.name)
	for g := range len(attrs) / 2 {
		start, dur := r.span(time.Duration(leaf.Start), g, groups)
		a := attrs[2*g : 2*g+2 : 2*g+2]
		a[0] = Int("step", int64(g*r.per))
		a[1] = Int("steps", int64(min(r.per, r.n-g*r.per)))
		dst = append(dst, spanRecord{
			ID:     uint64(nonzero(sim.HashUint64(h, uint64(g)))),
			Parent: leaf.ID,
			Name:   r.name,
			Track:  leaf.Track,
			Start:  int64(start),
			Dur:    int64(dur),
			Attrs:  a,
		})
	}
	return dst
}

// The block sizes of a blocks list: the first holds firstBlock
// elements, each next one twice its predecessor, up to maxBlock. A
// short trace stays small; a long one adds maxBlock elements at a time.
const (
	firstBlock = 64
	maxBlock   = 1024
)

// blocks is an append-only list kept as fixed-capacity blocks. A full
// block is never copied or regrown: the next element goes into a new
// block beside it, so over its life the list allocates about what it
// holds, where one append-grown slice allocates several times that in
// the copies its growth leaves behind.
type blocks[T any] struct {
	list [][]T
	n    int
}

// take returns room for n more elements, in one block: a subslice with
// its capacity capped at n, so appending to it never writes over the
// block's next elements. When the last block has too little room left,
// its tail stays unused and a new block is started, of the next size
// or of n if that is larger.
func (b *blocks[T]) take(n int) []T {
	last := len(b.list) - 1
	if last < 0 || cap(b.list[last])-len(b.list[last]) < n {
		size := firstBlock
		if last >= 0 {
			size = min(2*cap(b.list[last]), maxBlock)
		}
		b.list = append(b.list, make([]T, 0, max(size, n)))
		last++
	}
	blk := b.list[last]
	i := len(blk)
	b.list[last] = blk[:i+n]
	b.n += n
	return blk[i : i+n : i+n]
}

// appendTo appends every element, in the order taken, to dst.
func (b *blocks[T]) appendTo(dst []T) []T {
	for _, blk := range b.list {
		dst = append(dst, blk...)
	}
	return dst
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
	return &Span{tr: sp.tr, id: sp.childID(name), parent: sp.id, track: sp.track, start: start, name: name, attrs: attrs}
}

// childID numbers sp's next child: a hash of (sp's ID, name, creation
// index).
func (sp *Span) childID(name string) SpanID {
	idx := sp.children.Add(1) - 1
	return nonzero(sim.HashUint64(sim.HashString(uint64(sp.id), name), idx))
}

// Leaf records a child of sp that starts at start and ends at end. It
// exports exactly what Child(name, start, attrs...) followed at once by
// End(end) does, the same ID included, but builds no *Span: a finished
// leaf costs its record and nothing else. Its attributes are copied
// into memory the tracer owns, so attrs stays the caller's (a variadic
// call's slice stays on the caller's stack). A leaf can have no
// children and takes no Set: use it only where a Child would be ended
// before anything else is done with it.
func (sp *Span) Leaf(name string, start, end time.Duration, attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.leaf(name, start, end, attrs)
}

func (sp *Span) leaf(name string, start, end time.Duration, attrs []Attr) {
	sp.tr.emit(sp.leafRecord(name, start, end), attrs)
}

// leafRecord is the record of sp's next child, a leaf, without its
// attributes.
func (sp *Span) leafRecord(name string, start, end time.Duration) spanRecord {
	return spanRecord{
		ID:     uint64(sp.childID(name)),
		Parent: uint64(sp.id),
		Name:   name,
		Track:  sp.track,
		Start:  int64(start),
		Dur:    int64(clampedDur(start, end)),
	}
}

// Steps records a leaf child of sp, name from start to end with attrs,
// and under it a run of ceil(n/per) leaves named step: leaf g covers
// steps g·per up to min((g+1)·per, n), carries the attributes
// step = g·per and steps = min(per, n − g·per), and takes the gth of
// groups even slices of [start, end]. It exports exactly what
//
//	c := sp.Child(name, start, attrs...)
//	for g := 0; g < groups; g++ {
//		c.Leaf(step, start+time.Duration(g)*(end-start)/time.Duration(groups),
//			start+time.Duration(g+1)*(end-start)/time.Duration(groups),
//			Int("step", int64(g*per)), Int("steps", int64(min(per, n-g*per))))
//	}
//	c.End(end)
//
// does, and the span observer sees the same spans in the same order, but
// the tracer keeps one record, its attributes and one stepRun: the step
// leaves are built at export. Len and the buffer cap count them one by
// one. As with Leaf, attrs are copied and the leaf takes no Set. With n
// or per below 1 the run is empty: Steps records the leaf alone.
func (sp *Span) Steps(name string, start, end time.Duration, step string, n, per int, attrs ...Attr) {
	if sp == nil {
		return
	}
	rec := sp.leafRecord(name, start, end)
	if n < 1 || per < 1 {
		sp.tr.emit(rec, attrs)
		return
	}
	sp.tr.emitSteps(rec, attrs, stepRun{name: step, end: end, n: n, per: per})
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

	sp.tr.emit(spanRecord{
		ID:     uint64(sp.id),
		Parent: uint64(sp.parent),
		Name:   sp.name,
		Track:  sp.track,
		Start:  int64(sp.start),
		Dur:    int64(clampedDur(sp.start, end)),
		Attrs:  attrs,
	}, nil)
}

// clampedDur is end − start, or zero for an end before the start.
func clampedDur(start, end time.Duration) time.Duration {
	return max(end-start, 0)
}

// emit buffers a finished span. A *Span hands over its attributes in
// rec.Attrs; a leaf's arrive in leafAttrs and are copied into the
// tracer's own blocks.
func (t *Tracer) emit(rec spanRecord, leafAttrs []Attr) {
	t.mu.Lock()
	obsv := t.observer
	t.keep(rec, leafAttrs)
	t.mu.Unlock()
	if obsv != nil {
		obsv(rec.Name, rec.Track, time.Duration(rec.Start), time.Duration(rec.Dur))
	}
}

// kept is the number of finished spans kept, a run counted as its
// leaves; t.mu is held.
func (t *Tracer) kept() int { return t.spans.n + t.steps }

// keep buffers rec, or drops it at the cap; t.mu is held.
func (t *Tracer) keep(rec spanRecord, leafAttrs []Attr) {
	if t.kept() >= maxSpans {
		t.dropped++
		return
	}
	if len(leafAttrs) > 0 {
		rec.Attrs = t.attrs.take(len(leafAttrs))
		copy(rec.Attrs, leafAttrs)
	}
	t.spans.take(1)[0] = rec
}

// emitSteps buffers a Steps call: its run and then its leaf, where the
// Leaf calls and the End it stands for would have put their records, so
// export sorts what it sorted before. A run that the cap leaves too
// little room for keeps its first leaves as records and drops the rest.
func (t *Tracer) emitSteps(rec spanRecord, leafAttrs []Attr, r stepRun) {
	groups := r.groups()
	t.mu.Lock()
	obsv := t.observer
	switch room := maxSpans - t.kept(); {
	case groups < room:
		r.at = t.spans.n
		t.runs.take(1)[0] = r
		t.steps += groups
	case room > 0:
		copy(t.spans.take(room), r.appendLeaves(nil, &rec, make([]Attr, 2*room)))
		t.dropped += int64(groups - room)
	default:
		t.dropped += int64(groups)
	}
	t.keep(rec, leafAttrs)
	t.mu.Unlock()
	if obsv != nil {
		for g := range groups {
			start, dur := r.span(time.Duration(rec.Start), g, groups)
			obsv(r.name, rec.Track, start, dur)
		}
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
	return t.kept()
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

// sorted concatenates the buffer's blocks into one slice, each run's
// leaves built in just before the leaf that holds them, and puts it in
// the export order compareRecords defines.
func (t *Tracer) sorted() []spanRecord {
	t.mu.Lock()
	out := make([]spanRecord, 0, t.kept())
	attrs := make([]Attr, 2*t.steps)
	runs, run := t.runs.list, []stepRun(nil)
	at := 0 // index of the next record among the tracer's records
	for _, blk := range t.spans.list {
		for i := range blk {
			if len(run) == 0 && len(runs) > 0 {
				run, runs = runs[0], runs[1:]
			}
			if len(run) > 0 && run[0].at == at {
				k := 2 * run[0].groups()
				out = run[0].appendLeaves(out, &blk[i], attrs[:k:k])
				attrs, run = attrs[k:], run[1:]
			}
			out = append(out, blk[i])
			at++
		}
	}
	t.mu.Unlock()
	slices.SortFunc(out, compareRecords)
	return out
}

// compareRecords orders records by start, then ID, then their own
// content. A job that fails over runs again from start 0 under the same
// root ID, so records that differ can tie on (start, ID); the content
// orders them the same wherever concurrent jobs left them in the
// buffer. Records it calls equal export the same bytes.
func compareRecords(a, b spanRecord) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dur, b.Dur); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Track, b.Track); c != 0 {
		return c
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Parent, b.Parent); c != 0 {
		return c
	}
	return slices.CompareFunc(a.Attrs, b.Attrs, func(x, y Attr) int {
		if c := strings.Compare(x.Key, y.Key); c != 0 {
			return c
		}
		vx, vy := fmt.Sprintf("%T %v", x.Value, x.Value), fmt.Sprintf("%T %v", y.Value, y.Value)
		return strings.Compare(vx, vy)
	})
}

// WriteJSONL exports the trace as one JSON span per line, in
// deterministic order. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	recs := t.sorted()
	var line []byte
	for i := range recs {
		var ok bool
		if line, ok = appendRecord(line[:0], &recs[i]); !ok {
			data, err := json.Marshal(&recs[i])
			if err != nil {
				return fmt.Errorf("obs: marshal span %d: %w", recs[i].ID, err)
			}
			line = data
		}
		bw.Write(append(line, '\n'))
	}
	return bw.Flush()
}

// appendRecord appends the bytes json.Marshal writes for rec, without
// reflection or an Attr boxed per call. It reports false, having
// appended part of them, when rec holds something only encoding/json
// writes right: a string it escapes, or an attribute value that is not
// a string, an int64, a finite float64 or a bool. The caller then
// marshals the record, which also returns the error NaN or ±Inf gets.
func appendRecord(b []byte, rec *spanRecord) ([]byte, bool) {
	if !plainString(rec.Name) {
		return b, false
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, rec.ID, 10)
	if rec.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, rec.Parent, 10)
	}
	b = append(b, `,"name":"`...)
	b = append(b, rec.Name...)
	b = append(b, `","track":`...)
	b = strconv.AppendInt(b, int64(rec.Track), 10)
	b = append(b, `,"startNs":`...)
	b = strconv.AppendInt(b, rec.Start, 10)
	b = append(b, `,"durNs":`...)
	b = strconv.AppendInt(b, rec.Dur, 10)
	if len(rec.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range rec.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			if !plainString(a.Key) {
				return b, false
			}
			b = append(b, `{"k":"`...)
			b = append(b, a.Key...)
			b = append(b, `","v":`...)
			switch v := a.Value.(type) {
			case string:
				if !plainString(v) {
					return b, false
				}
				b = append(b, '"')
				b = append(b, v...)
				b = append(b, '"')
			case int64:
				b = strconv.AppendInt(b, v, 10)
			case float64:
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return b, false
				}
				b = appendJSONFloat(b, v)
			case bool:
				b = strconv.AppendBool(b, v)
			default:
				return b, false
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// plainString reports whether encoding/json writes s as it stands
// between quotes: printable ASCII without a quote, a backslash or an
// HTML character.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 or
// from 1e21 on, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
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
