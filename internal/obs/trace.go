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
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgetune/internal/jsonenc"
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

// Tracer collects finished spans. A nil *Tracer is a valid disabled
// tracer: all methods no-op. Safe for concurrent use.
//
// A finished span costs what it is and its attributes, nothing more:
// everything is kept in blocks, so the buffer grows without copying what
// it holds (see blocks). An ended *Span is its own record: the tracer
// keeps the pointer, and export builds the record from it. A leaf is a
// record and nothing else. A training run costs one epochRun for all its
// epoch and step leaves, whatever its length: they are built from it at
// export.
//
// Attribute memory is owned by the tracer. End copies a span's
// attributes — those given to Root or Child, then those given to End —
// into the tracer's Attr blocks, exactly sized, once; Leaf copies its
// own. So the slice passed to End or Leaf is the caller's again when the
// call returns, and a variadic call's slice stays on the caller's stack.
// The slice passed to Root or Child is held by the *Span until it ends,
// so a caller must not modify it in between.
type Tracer struct {
	mu       sync.Mutex
	spans    blocks[*Span] // ended spans
	leaves   blocks[spanRecord]
	attrs    blocks[Attr] // the attributes of ended spans and of leaves
	runs     blocks[epochRun]
	steps    int // leaves held in runs
	dropped  int64
	observer func(name string, track int, start, dur time.Duration)
}

// epochRun is what one Epochs call records: its epoch leaves and their
// step leaves, of which the first kept are held. Every leaf is a
// function of the run and its place in it, so export builds them
// (appendLeaves) where Leaf would have kept a record and its attributes
// each.
type epochRun struct {
	parent     SpanID
	first      uint64 // the parent's child index of epoch 0
	name, step string
	start, end time.Duration
	track      int
	epochs     int
	n, per     int
	kept       int // leaves held, in the order Epochs' loop records them
}

// groups is the number of step leaves under each epoch: n steps, per to
// a leaf, or none when n or per is below 1.
func (r *epochRun) groups() int {
	if r.n < 1 || r.per < 1 {
		return 0
	}
	return (r.n-1)/r.per + 1
}

// leaves is the number of leaves the run records: each epoch's step
// leaves and then the epoch.
func (r *epochRun) leaves() int { return r.epochs * (r.groups() + 1) }

// epoch is the start and the end of epoch e: an even share of the run,
// by integer division, and the last one to the run's end.
func (r *epochRun) epoch(e int) (time.Duration, time.Duration) {
	d := (r.end - r.start) / time.Duration(r.epochs)
	start, end := r.start+time.Duration(e)*d, r.start+time.Duration(e+1)*d
	if e == r.epochs-1 {
		end = r.end
	}
	return start, end
}

// stepSpan is the start and the duration of step leaf g of an epoch from
// start to end: the gth of groups even slices, by the integer division
// a loop of Leaf calls over the same range does.
func stepSpan(start, end time.Duration, g, groups int) (time.Duration, time.Duration) {
	d := end - start
	gStart := start + time.Duration(g)*d/time.Duration(groups)
	gEnd := start + time.Duration(g+1)*d/time.Duration(groups)
	return gStart, clampedDur(gStart, gEnd)
}

// each calls fn for every leaf of the run, kept or not, in the order
// Epochs' loop records them: epoch e's step leaves (g ≥ 0), then epoch e
// itself (g = −1). It stops early when fn returns false.
func (r *epochRun) each(fn func(e, g int, start, dur time.Duration) bool) {
	groups := r.groups()
	for e := range r.epochs {
		eStart, eEnd := r.epoch(e)
		for g := range groups {
			start, dur := stepSpan(eStart, eEnd, g, groups)
			if !fn(e, g, start, dur) {
				return
			}
		}
		if !fn(e, -1, eStart, clampedDur(eStart, eEnd)) {
			return
		}
	}
}

// appendLeaves appends the run's kept leaves to dst, as the Child, Leaf
// and End calls of Epochs' doc comment record them; their attributes
// are appended to *attrs, which must have the room for them.
func (r *epochRun) appendLeaves(dst []spanRecord, attrs *[]Attr) []spanRecord {
	left := r.kept
	h := sim.HashString(uint64(r.parent), r.name)
	var id, hs uint64 // epoch e's ID, and its hash for its step leaves
	r.each(func(e, g int, start, dur time.Duration) bool {
		if g <= 0 {
			id = uint64(nonzero(sim.HashUint64(h, r.first+uint64(e))))
			hs = sim.HashString(id, r.step)
		}
		rec := spanRecord{Track: r.track, Start: int64(start), Dur: int64(dur)}
		a := *attrs
		if g >= 0 {
			rec.ID, rec.Parent, rec.Name = uint64(nonzero(sim.HashUint64(hs, uint64(g)))), id, r.step
			a = append(a, Int("step", int64(g*r.per)), Int("steps", int64(min(r.per, r.n-g*r.per))))
		} else {
			rec.ID, rec.Parent, rec.Name = id, uint64(r.parent), r.name
			a = append(a, Int("epoch", int64(e)))
		}
		rec.Attrs = a[len(*attrs):len(a):len(a)]
		*attrs = a
		dst = append(dst, rec)
		left--
		return left > 0
	})
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

// Span is a span, in progress until End and then the tracer's record of
// it. A nil *Span no-ops, so instrumentation chains (root disabled →
// children disabled) need no guards.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration
	// attrs holds the attributes Root or Child was given until the End
	// that ends the span, under the tracer's lock, sets dur and replaces
	// attrs with the tracer's copy of them and of End's own.
	dur   time.Duration
	attrs []Attr

	children atomic.Uint64
	track    int32
	ended    atomic.Bool
}

// Root starts a top-level span. index must be deterministic across
// same-seed runs (a seed, a submission sequence number): together with
// name it becomes the span's ID, which child IDs chain from.
func (t *Tracer) Root(track int, name string, index uint64, start time.Duration, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	id := sim.HashUint64(sim.Hash64(name), index)
	return &Span{tr: t, id: nonzero(id), track: int32(track), start: start, name: name, attrs: attrs}
}

// Child starts a span under sp. The child inherits the parent's track;
// its ID derives from (parent ID, name, per-parent creation index), so
// it is deterministic as long as sp's children are created from a
// single goroutine at a time. A span that has ended can still take
// children.
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
// children: use it only where a Child would be ended before anything
// else is done with it.
func (sp *Span) Leaf(name string, start, end time.Duration, attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.leaf(name, start, end, attrs)
}

func (sp *Span) leaf(name string, start, end time.Duration, attrs []Attr) {
	sp.tr.emitLeaf(sp.leafRecord(name, start, end), attrs)
}

// leafRecord is the record of sp's next child, a leaf, without its
// attributes.
func (sp *Span) leafRecord(name string, start, end time.Duration) spanRecord {
	return spanRecord{
		ID:     uint64(sp.childID(name)),
		Parent: uint64(sp.id),
		Name:   name,
		Track:  int(sp.track),
		Start:  int64(start),
		Dur:    int64(clampedDur(start, end)),
	}
}

// Epochs records under sp the timeline of a training run from start to
// end: epochs leaf children named name, each holding a run of
// ceil(n/per) leaves named step. Epoch e carries the attribute
// epoch = e and takes an even share of [start, end], the last epoch the
// remainder; its step leaf g covers steps g·per up to
// min((g+1)·per, n), carries the attributes step = g·per and
// steps = min(per, n − g·per), and takes the gth of groups even slices
// of its epoch. It exports exactly what
//
//	d := (end - start) / time.Duration(epochs)
//	for e := 0; e < epochs; e++ {
//		eStart, eEnd := start+time.Duration(e)*d, start+time.Duration(e+1)*d
//		if e == epochs-1 {
//			eEnd = end
//		}
//		c := sp.Child(name, eStart, Int("epoch", int64(e)))
//		for g := 0; g < groups; g++ {
//			c.Leaf(step, eStart+time.Duration(g)*(eEnd-eStart)/time.Duration(groups),
//				eStart+time.Duration(g+1)*(eEnd-eStart)/time.Duration(groups),
//				Int("step", int64(g*per)), Int("steps", int64(min(per, n-g*per))))
//		}
//		c.End(eEnd)
//	}
//
// does, and the span observer sees the same spans in the same order, but
// the tracer keeps one epochRun for the lot: the leaves are built at
// export. Len and the buffer cap count them one by one. With n or per
// below 1 an epoch has no step leaves; with epochs below 1 Epochs
// records nothing.
func (sp *Span) Epochs(name string, start, end time.Duration, epochs int, step string, n, per int) {
	if sp == nil || epochs < 1 {
		return
	}
	first := sp.children.Add(uint64(epochs)) - uint64(epochs)
	sp.tr.emitEpochs(epochRun{
		parent: sp.id, first: first, name: name, step: step,
		start: start, end: end, track: int(sp.track), epochs: epochs, n: n, per: per,
	})
}

// End finishes the span at the given simulated time, with attrs after
// the attributes it was started with, and hands it to the tracer. End is
// idempotent: only the first call records, its attributes included. An
// end before the start is clamped to a zero duration. The nil fast path
// inlines, so a disabled span costs one pointer check (hot callers
// additionally guard attribute construction behind the same check).
func (sp *Span) End(end time.Duration, attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.end(end, attrs)
}

func (sp *Span) end(end time.Duration, attrs []Attr) {
	if !sp.ended.CompareAndSwap(false, true) {
		return
	}
	dur := clampedDur(sp.start, end)
	t := sp.tr
	t.mu.Lock()
	obsv := t.observer
	if t.room() {
		sp.dur = dur
		sp.attrs = t.copyAttrs(sp.attrs, attrs)
		t.spans.take(1)[0] = sp
	}
	t.mu.Unlock()
	if obsv != nil {
		obsv(sp.name, int(sp.track), sp.start, dur)
	}
}

// clampedDur is end − start, or zero for an end before the start.
func clampedDur(start, end time.Duration) time.Duration {
	return max(end-start, 0)
}

// emitLeaf buffers a leaf's record, its attributes copied into the
// tracer's own blocks.
func (t *Tracer) emitLeaf(rec spanRecord, attrs []Attr) {
	t.mu.Lock()
	obsv := t.observer
	if t.room() {
		rec.Attrs = t.copyAttrs(attrs, nil)
		t.leaves.take(1)[0] = rec
	}
	t.mu.Unlock()
	if obsv != nil {
		obsv(rec.Name, rec.Track, time.Duration(rec.Start), time.Duration(rec.Dur))
	}
}

// kept is the number of finished spans kept, a run counted as its
// leaves; t.mu is held.
func (t *Tracer) kept() int { return t.spans.n + t.leaves.n + t.steps }

// room reports whether one more finished span may be kept, and counts
// it dropped when it may not; t.mu is held.
func (t *Tracer) room() bool {
	if t.kept() >= maxSpans {
		t.dropped++
		return false
	}
	return true
}

// copyAttrs copies a and then b into one exactly sized slice of the
// tracer's blocks, or returns nil when both are empty; t.mu is held.
func (t *Tracer) copyAttrs(a, b []Attr) []Attr {
	if len(a)+len(b) == 0 {
		return nil
	}
	dst := t.attrs.take(len(a) + len(b))
	copy(dst[copy(dst, a):], b)
	return dst
}

// emitEpochs buffers an Epochs call. A run that the cap leaves too
// little room for keeps its first leaves, as the loop it stands for
// would, and drops the rest.
func (t *Tracer) emitEpochs(r epochRun) {
	total := r.leaves()
	t.mu.Lock()
	obsv := t.observer
	r.kept = min(total, max(maxSpans-t.kept(), 0))
	if r.kept > 0 {
		t.runs.take(1)[0] = r
		t.steps += r.kept
	}
	t.dropped += int64(total - r.kept)
	t.mu.Unlock()
	if obsv != nil {
		r.each(func(_, g int, start, dur time.Duration) bool {
			name := r.name
			if g >= 0 {
				name = r.step
			}
			obsv(name, r.track, start, dur)
			return true
		})
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

// sorted concatenates the buffer's blocks into one slice, with every
// ended span's record and every run's leaves built, and puts it in the
// export order compareRecords defines, which is total: where records
// came from in the buffer does not change the bytes exported. It also
// returns the count of spans dropped, read with the records.
func (t *Tracer) sorted() ([]spanRecord, int64) {
	t.mu.Lock()
	out := t.leaves.appendTo(make([]spanRecord, 0, t.kept()))
	for _, blk := range t.spans.list {
		for _, sp := range blk {
			out = append(out, spanRecord{
				ID:     uint64(sp.id),
				Parent: uint64(sp.parent),
				Name:   sp.name,
				Track:  int(sp.track),
				Start:  int64(sp.start),
				Dur:    int64(sp.dur),
				Attrs:  sp.attrs,
			})
		}
	}
	attrs := make([]Attr, 0, 2*t.steps) // a leaf has two attributes at most
	for _, blk := range t.runs.list {
		for i := range blk {
			out = blk[i].appendLeaves(out, &attrs)
		}
	}
	dropped := t.dropped
	t.mu.Unlock()
	slices.SortFunc(out, compareRecords)
	return out, dropped
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
// deterministic order. A trace the buffer cap cut ends with one more
// line, {"dropped":N}, the count of spans left out; an uncut trace has
// none. A nil tracer writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	recs, dropped := t.sorted()
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
	if dropped > 0 {
		line = strconv.AppendInt(append(line[:0], `{"dropped":`...), dropped, 10)
		bw.Write(append(line, "}\n"...))
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
	if !jsonenc.Plain(rec.Name) {
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
			if !jsonenc.Plain(a.Key) {
				return b, false
			}
			b = append(b, `{"k":"`...)
			b = append(b, a.Key...)
			b = append(b, `","v":`...)
			switch v := a.Value.(type) {
			case string:
				if !jsonenc.Plain(v) {
					return b, false
				}
				b = append(b, '"')
				b = append(b, v...)
				b = append(b, '"')
			case int64:
				b = strconv.AppendInt(b, v, 10)
			case float64:
				if !jsonenc.Finite(v) {
					return b, false
				}
				b = jsonenc.AppendFloat(b, v)
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

// SaveJSONL writes the JSONL export to path.
func (t *Tracer) SaveJSONL(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
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
