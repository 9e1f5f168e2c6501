package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edgetune/internal/obs/analyze"
	"edgetune/internal/testutil"
)

// buildTrace emits a small two-track trace; called twice it must
// produce identical exports.
func buildTrace() *Tracer {
	tr := NewTracer()
	root := tr.Root(TrackTuner, "tune", 7, 0, Str("workload", "IC"))
	br := root.Child("bracket", 0, Int("bracket", 0))
	trial := br.Child("trial", 10*time.Millisecond, Str("config", "b32"))
	trial.End(40*time.Millisecond, Float("accuracy", 0.91), Bool("degraded", false))
	br.End(50 * time.Millisecond)
	req := tr.Root(TrackServing, "request", 3, 20*time.Millisecond, Str("sig", "IC|b32"))
	req.Child("device-attempt", 20*time.Millisecond, Str("device", "i7")).End(30 * time.Millisecond)
	req.End(30 * time.Millisecond)
	root.End(60 * time.Millisecond)
	return tr
}

func TestTraceExportDeterministic(t *testing.T) {
	a, ca := exports(t, buildTrace())
	b, cb := exports(t, buildTrace())
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL exports differ:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("Chrome exports differ:\n%s\nvs\n%s", ca, cb)
	}
}

func TestTraceParentChildIDs(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := analyze.ParseJSONL(&buf)
	if err != nil || parsed.Malformed != 0 {
		t.Fatalf("bad JSONL: err=%v, errors %v", err, parsed.Errors)
	}
	ids := map[uint64]bool{}
	recs := parsed.Spans
	for _, rec := range recs {
		if rec.ID == 0 {
			t.Fatalf("span %q has zero ID", rec.Name)
		}
		if ids[rec.ID] {
			t.Fatalf("duplicate span ID %d", rec.ID)
		}
		ids[rec.ID] = true
	}
	if len(recs) != 5 {
		t.Fatalf("expected 5 spans, got %d", len(recs))
	}
	for _, rec := range recs {
		if rec.Parent != 0 && !ids[rec.Parent] {
			t.Errorf("span %q parent %d not exported", rec.Name, rec.Parent)
		}
	}
	// Exported order is (start, ID): starts must be non-decreasing.
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatalf("spans out of order at %d: %d after %d", i, recs[i].Start, recs[i-1].Start)
		}
	}
}

// TestTraceChromeLoadable: the Chrome view of a trace is one JSON
// document of metadata and complete events, and every track the tracer
// declares has its own thread name.
func TestTraceChromeLoadable(t *testing.T) {
	tr := buildTrace()
	for track := TrackStore; track <= TrackCluster; track++ {
		tr.Root(track, "other", 0, 0).End(0)
	}
	_, chrome := exports(t, tr)
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			TID  int     `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if strings.HasPrefix(ev.Args.Name, "track-") {
				t.Errorf("track %d has no name of its own: %q", ev.TID, ev.Args.Name)
			}
		case "X":
			complete++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta != 4 || complete != 7 {
		t.Fatalf("expected 4 metadata + 7 complete events, got %d + %d", meta, complete)
	}
}

func TestNilTracerAndSpanNoOp(t *testing.T) {
	var tr *Tracer
	root := tr.Root(TrackTuner, "tune", 1, 0)
	if root != nil {
		t.Fatal("nil tracer must return nil root")
	}
	child := root.Child("trial", 0, Str("k", "v"))
	child.End(time.Second, Int("n", 1))
	child.Leaf("mini-batch", 0, time.Second, Int("step", 1))
	if tr.Len() != 0 {
		t.Fatal("nil tracer must report empty")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer JSONL: err=%v len=%d", err, buf.Len())
	}
	if err := tr.SaveJSONL("/nonexistent/never-created"); err != nil {
		t.Fatalf("nil tracer SaveJSONL: %v", err)
	}
}

// TestSpanEndIdempotent: only the first End records, with its own
// attributes; a later one, attributes and all, changes nothing.
func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Root(TrackTuner, "x", 1, 0, Str("at", "start"))
	sp.End(time.Second, Str("at", "end"))
	sp.End(2*time.Second, Str("late", "ignored"))
	if tr.Len() != 1 {
		t.Fatalf("double End recorded %d spans, want 1", tr.Len())
	}
	var buf bytes.Buffer
	tr.WriteJSONL(&buf)
	if strings.Contains(buf.String(), "late") {
		t.Fatal("a second End's attributes must be dropped")
	}
	if !strings.Contains(buf.String(), `"durNs":1000000000,"attrs":[{"k":"at","v":"start"},{"k":"at","v":"end"}]`) {
		t.Fatalf("first End must win, after the start attributes: %s", buf.String())
	}
}

// TestSpanEndAttrsAreCopied: the slices passed to End are the caller's
// again once End returns; reusing one changes no recorded span.
func TestSpanEndAttrsAreCopied(t *testing.T) {
	tr := NewTracer()
	root := tr.Root(TrackTuner, "tune", 1, 0)
	attrs := []Attr{Str("outcome", "ok"), Int("attempt", 0)}
	root.Child("attempt", 0).End(1, attrs...)
	attrs[0], attrs[1] = Str("outcome", "overwritten"), Int("attempt", 1)
	root.Child("attempt", 1).End(2, attrs...)
	jsonl, _ := exports(t, tr)
	if strings.Count(string(jsonl), `{"k":"outcome","v":"ok"},{"k":"attempt","v":0}`) != 1 ||
		strings.Count(string(jsonl), `"overwritten"`) != 1 {
		t.Fatalf("a span's attributes changed after End returned:\n%s", jsonl)
	}
}

// TestSpanEndRacingEnd: spans ended from several goroutines at once
// record once each, with the attributes of one End, whichever won.
func TestSpanEndRacingEnd(t *testing.T) {
	const spans, enders = 200, 4
	tr := NewTracer()
	root := tr.Root(TrackServing, "request", 1, 0)
	kids := make([]*Span, spans)
	for i := range kids {
		kids[i] = root.Child("attempt", time.Duration(i), Int("attempt", int64(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < enders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sp := range kids {
				sp.End(time.Duration(i+g), Int("ender", int64(g)), Str("outcome", "ok"))
			}
		}()
	}
	wg.Wait()
	if tr.Len() != spans {
		t.Fatalf("kept %d spans, want %d", tr.Len(), spans)
	}
	jsonl, _ := exports(t, tr)
	for _, line := range strings.Split(strings.TrimSpace(string(jsonl)), "\n") {
		if strings.Count(line, `"k":"ender"`) != 1 || strings.Count(line, `"k":"outcome"`) != 1 {
			t.Fatalf("a span holds other than one End's attributes: %s", line)
		}
	}
}

// TestChildOfEndedSpan: a child started under a span that has already
// ended is recorded under it, numbered after its earlier siblings, and
// the ended span is not recorded again.
func TestChildOfEndedSpan(t *testing.T) {
	build := func(endFirst bool) *Tracer {
		tr := NewTracer()
		root := tr.Root(TrackTuner, "tune", 1, 0)
		root.Child("bracket", 0).End(1)
		if endFirst {
			root.End(2, Int("trials", 1))
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Child("bracket", 1, Int("bracket", 1)).End(2)
		}()
		wg.Wait()
		root.End(2, Int("trials", 1))
		return tr
	}
	want, _ := exports(t, build(false))
	got, _ := exports(t, build(true))
	if !bytes.Equal(got, want) {
		t.Fatalf("a child of an ended span exports differently:\n%s\nvs\n%s", got, want)
	}
}

// TestTracerWritesJSONLBesideEnd: exports taken while spans end from other
// goroutines each hold whole spans, and once every span has ended the
// export is the one a quiet tracer writes. Run under -race it also
// checks that End's writes to a span and export's reads of it are
// ordered by the tracer's lock.
func TestTracerWritesJSONLBesideEnd(t *testing.T) {
	const parents, children = 4, 300
	build := func(export bool) *Tracer {
		tr := NewTracer()
		var wg sync.WaitGroup
		for p := 0; p < parents; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				root := tr.Root(TrackServing, "request", uint64(p), time.Duration(p))
				emitChildren(root, children, false)
				root.End(time.Second, Str("outcome", "ok"))
			}()
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		for export {
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil {
				t.Error(err)
			}
			parsed, err := analyze.ParseJSONL(&buf)
			if err != nil || parsed.Malformed != 0 {
				t.Fatalf("an export beside End is not whole spans: err=%v, errors %v", err, parsed.Errors)
			}
			select {
			case <-done:
				export = false
			default:
			}
		}
		<-done
		return tr
	}
	want, _ := exports(t, build(false))
	got, _ := exports(t, build(true))
	if !bytes.Equal(got, want) {
		t.Fatal("spans ended beside exports export differently from spans ended alone")
	}
}

func TestSpanNegativeDurationClamped(t *testing.T) {
	tr := NewTracer()
	tr.Root(TrackTuner, "x", 1, time.Second).End(0)
	var buf bytes.Buffer
	tr.WriteJSONL(&buf)
	if !strings.Contains(buf.String(), `"durNs":0`) {
		t.Fatalf("negative duration not clamped: %s", buf.String())
	}
}

func TestTracerConcurrentRoots(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.Root(TrackServing, "request", uint64(i), time.Duration(i)*time.Millisecond)
			sp.Child("attempt", sp.start).End(sp.start)
			sp.End(time.Duration(i+1) * time.Millisecond)
		}(i)
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("got %d spans, want 64", tr.Len())
	}
	var a, b bytes.Buffer
	tr.WriteJSONL(&a)
	tr.WriteJSONL(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("repeated exports of one tracer differ")
	}
}

func TestSaveFiles(t *testing.T) {
	dir := t.TempDir()
	tr := buildTrace()
	jp := dir + "/t.jsonl"
	if err := tr.SaveJSONL(jp); err != nil {
		t.Fatal(err)
	}
	mem, memChrome := exports(t, tr)
	data := mustRead(t, jp)
	if !bytes.Equal(data, mem) {
		t.Fatal("SaveJSONL differs from WriteJSONL")
	}
	var chrome bytes.Buffer
	if err := analyze.Chrome(&chrome, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chrome.Bytes(), memChrome) {
		t.Fatal("the saved trace converts to other Chrome bytes than WriteJSONL's")
	}
}

// leafAttrs are the attribute lists the leaf tests cycle through: none,
// one, two, and five, of every kind.
var leafAttrs = [][]Attr{
	nil,
	{Int("step", 3)},
	{Int("step", 0), Int("steps", 2)},
	{Str("device", "i7"), Int("attempt", 1), Float("score", 0.5), Bool("ok", true), Int("big", 1<<40)},
}

// emitChildren gives parent n children: every fourth an ordinary span
// with a grandchild and attributes at its start and at its End, the rest
// leaves — built by Leaf, or by Child and an End at once when leaf is
// false. Starts repeat, so the export's ID tie-break is exercised too.
func emitChildren(parent *Span, n int, leaf bool) {
	for i := 0; i < n; i++ {
		start := time.Duration(i/3) * time.Millisecond
		end := start + time.Duration(i%5)*time.Microsecond
		if i%4 == 0 {
			sp := parent.Child("epoch", start, Int("epoch", int64(i)))
			sp.Child("inner", start).End(end)
			sp.End(end, Bool("done", true))
			continue
		}
		attrs := leafAttrs[i%len(leafAttrs)]
		if i%7 == 0 {
			end = start - time.Microsecond // clamped to zero either way
		}
		if leaf {
			parent.Leaf("mini-batch", start, end, attrs...)
		} else {
			parent.Child("mini-batch", start, attrs...).End(end)
		}
	}
}

// exports is the trace's JSONL export and its Chrome view.
func exports(t *testing.T, tr *Tracer) (jsonl, chrome []byte) {
	t.Helper()
	var j, c bytes.Buffer
	if err := tr.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Chrome(&c, bytes.NewReader(j.Bytes())); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes()
}

// TestLeafMatchesChildEnd: a leaf exports exactly what a Child ended at
// once exports — ID, parent, duration, attributes — and takes its place
// in the parent's child numbering, so the spans around it keep theirs.
func TestLeafMatchesChildEnd(t *testing.T) {
	build := func(leaf bool) *Tracer {
		tr := NewTracer()
		root := tr.Root(TrackTuner, "attempt", 9, 0, Str("config", "b32"))
		emitChildren(root, 200, leaf)
		root.End(time.Second)
		return tr
	}
	ends, leaves := build(false), build(true)
	if ends.Len() != leaves.Len() {
		t.Fatalf("Child+End kept %d spans, Leaf %d", ends.Len(), leaves.Len())
	}
	wantJ, wantC := exports(t, ends)
	gotJ, gotC := exports(t, leaves)
	if !bytes.Equal(gotJ, wantJ) {
		t.Errorf("JSONL with leaves differs from Child+End:\n%s\nvs\n%s", gotJ, wantJ)
	}
	if !bytes.Equal(gotC, wantC) {
		t.Errorf("Chrome export with leaves differs from Child+End")
	}
}

// TestLeafAttrsAreCopied: the slice passed to Leaf is the caller's again
// once Leaf returns; reusing it changes no recorded span.
func TestLeafAttrsAreCopied(t *testing.T) {
	tr := NewTracer()
	root := tr.Root(TrackTuner, "epoch", 1, 0)
	attrs := []Attr{Int("step", 1), Int("steps", 1)}
	root.Leaf("mini-batch", 0, 1, attrs...)
	attrs[0], attrs[1] = Int("step", 2), Str("late", "overwritten")
	root.Leaf("mini-batch", 1, 2, attrs...)
	jsonl, _ := exports(t, tr)
	if strings.Count(string(jsonl), `{"k":"step","v":1}`) != 1 || strings.Count(string(jsonl), `"late"`) != 1 {
		t.Fatalf("a leaf's attributes changed after Leaf returned:\n%s", jsonl)
	}
}

// TestConcurrentLeaves: leaves under eight parents, one goroutine each,
// export as the same leaves emitted from one goroutine do. Run under
// -race it also checks that the shared blocks are guarded.
func TestConcurrentLeaves(t *testing.T) {
	const parents, children = 8, 500
	build := func(concurrent bool) *Tracer {
		tr := NewTracer()
		var wg sync.WaitGroup
		for p := 0; p < parents; p++ {
			run := func() {
				root := tr.Root(TrackServing, "request", uint64(p), time.Duration(p))
				emitChildren(root, children, true)
				root.End(time.Second)
			}
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		wg.Wait()
		return tr
	}
	seq, conc := build(false), build(true)
	if conc.Len() != parents*(children+1+children/4) {
		t.Fatalf("kept %d spans, want %d", conc.Len(), parents*(children+1+children/4))
	}
	wantJ, wantC := exports(t, seq)
	gotJ, gotC := exports(t, conc)
	if !bytes.Equal(gotJ, wantJ) || !bytes.Equal(gotC, wantC) {
		t.Fatal("concurrent leaves export differently from sequential ones")
	}
}

// TestTracerAllocatesWhatItKeeps: filling the buffer allocates about
// the records, spans, attributes and runs it keeps, not the multiple of
// them that the copies of an append-grown slice add up to. Leaves are
// two thirds of a job's spans; each costs its record and its attributes.
// An ordinary span is its own record: it costs its *Span and the 8-byte
// slot that keeps it. A training attempt costs one run, whether it has
// one epoch or sixty, not its epochs and their 64 steps each.
func TestTracerAllocatesWhatItKeeps(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the tracer's behalf")
	}
	const (
		leaves   = 20000
		spans    = 2000
		attempts = 2000
		steps    = 64
	)
	epochs := func(i int) int { return []int{1, 3, 10, 60}[i/(leaves/attempts)%4] }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTracer()
	root := tr.Root(TrackTuner, "attempt", 1, 0)
	wantLen := leaves + spans
	for i := 0; i < leaves; i++ {
		at := time.Duration(i)
		root.Leaf("mini-batch", at, at+1, Int("step", int64(i%64)), Int("steps", 1))
		if i%(leaves/spans) == 0 {
			root.Child("epoch", at).End(at + 1)
		}
		if i%(leaves/attempts) == 0 {
			root.Epochs("epoch", at, at+steps, epochs(i), "mini-batch", steps, 1)
			wantLen += epochs(i) * (1 + steps)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)

	recSize, attrSize := float64(reflect.TypeOf(spanRecord{}).Size()), float64(reflect.TypeOf(Attr{}).Size())
	spanSize, slotSize := float64(reflect.TypeOf(Span{}).Size()), float64(reflect.TypeOf(&Span{}).Size())
	runSize := float64(reflect.TypeOf(epochRun{}).Size())
	if runSize > 128 {
		t.Errorf("a training run takes %.0f B, over 128", runSize)
	}
	if spanSize > 96 {
		t.Errorf("a span takes %.0f B, over the 96-byte size class", spanSize)
	}
	kept := leaves*recSize + spans*(spanSize+slotSize) + 2*leaves*attrSize + attempts*runSize
	block := maxBlock * (recSize + slotSize + attrSize + runSize)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d spans: %.0f B kept, %.0f B allocated (%.3fx)", tr.Len(), kept, got, got/kept)
	if tr.Len() != wantLen {
		t.Fatalf("kept %d spans, want %d", tr.Len(), wantLen)
	}
	if limit := 1.1*kept + block; got > limit {
		t.Errorf("allocated %.0f B for %.0f B kept: over the %.0f B allowed (1.1x plus one block)", got, kept, limit)
	}
}

// epochsByLeaf is what Epochs stands for: per epoch, the epoch as a
// Child, a loop of Leaf calls for its steps, then the epoch's End.
func epochsByLeaf(sp *Span, name string, start, end time.Duration, epochs int, step string, n, per int) {
	if epochs < 1 {
		return
	}
	groups := 0
	if n >= 1 && per >= 1 {
		groups = (n + per - 1) / per
	}
	d := (end - start) / time.Duration(epochs)
	for e := 0; e < epochs; e++ {
		eStart, eEnd := start+time.Duration(e)*d, start+time.Duration(e+1)*d
		if e == epochs-1 {
			eEnd = end
		}
		c := sp.Child(name, eStart, Int("epoch", int64(e)))
		for g := 0; g < groups; g++ {
			c.Leaf(step, eStart+time.Duration(g)*(eEnd-eStart)/time.Duration(groups),
				eStart+time.Duration(g+1)*(eEnd-eStart)/time.Duration(groups),
				Int("step", int64(g*per)), Int("steps", int64(min(per, n-g*per))))
		}
		c.End(eEnd)
	}
}

// epochsEmitter is the shape of Epochs and of epochsByLeaf.
type epochsEmitter func(sp *Span, name string, start, end time.Duration, epochs int, step string, n, per int)

// observed is one call of a span observer.
type observed struct {
	name       string
	track      int
	start, dur time.Duration
}

// observedTracer is a tracer whose observer appends to the returned
// list, one list per track so goroutines on their own tracks keep their
// own order.
func observedTracer() (*Tracer, map[int][]observed) {
	tr, seen := NewTracer(), map[int][]observed{}
	var mu sync.Mutex
	tr.SetSpanObserver(func(name string, track int, start, dur time.Duration) {
		mu.Lock()
		seen[track] = append(seen[track], observed{name, track, start, dur})
		mu.Unlock()
	})
	return tr, seen
}

// TestStepsMatchesLeafLoop: an Epochs call exports, counts and is
// observed exactly as the per-epoch loop of Child, Leaf calls and End it
// stands for, for runs of every shape, for runs with ordinary siblings
// between them (which take the child numbers after a run's epochs), and
// for runs under sibling spans built from goroutines.
func TestStepsMatchesLeafLoop(t *testing.T) {
	type run struct {
		epochs, n, per int
		start, end     time.Duration
	}
	cases := []struct {
		name    string
		runs    []run
		parents int // goroutines, each under its own root and track
	}{
		{"per-over-n", []run{{1, 5, 8, 0, time.Second}, {3, 5, 8, time.Second, 2 * time.Second}}, 1},
		{"uneven", []run{{7, 100, 7, time.Millisecond, 3*time.Second + 5}}, 1},
		{"one-step", []run{{1, 1, 1, 5, 9}, {4, 1, 1, 9, 11}}, 1},
		{"start-is-end", []run{{3, 64, 1, time.Second, time.Second}}, 1},
		{"end-before-start", []run{{3, 10, 3, time.Second, time.Millisecond}, {2, 0, 1, time.Second, 2 * time.Second}}, 1},
		{"coalesced", []run{{5, 1000, 16, 0, 7 * time.Second}, {2, 3, 1, 7 * time.Second, 8 * time.Second}}, 1},
		{"siblings-from-goroutines", []run{{2, 64, 1, 0, time.Second}, {3, 200, 4, time.Second, 2 * time.Second}, {1, 9, 2, 2 * time.Second, 2 * time.Second}}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(emit epochsEmitter) (*Tracer, map[int][]observed) {
				tr, seen := observedTracer()
				var wg sync.WaitGroup
				for p := 0; p < tc.parents; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						root := tr.Root(TrackTuner+p, "attempt", uint64(p), 0)
						for i, r := range tc.runs {
							if i%2 == 1 { // an ordinary sibling between runs
								root.Child("eval", r.start).End(r.start)
							}
							emit(root, "epoch", r.start, r.end, r.epochs, "mini-batch", r.n, r.per)
						}
						root.Child("eval", 10*time.Second).End(10 * time.Second)
						root.End(10 * time.Second)
					}()
				}
				wg.Wait()
				return tr, seen
			}
			old, oldSeen := build(epochsByLeaf)
			got, gotSeen := build((*Span).Epochs)
			if got.Len() != old.Len() {
				t.Errorf("Epochs kept %d spans, the loop %d", got.Len(), old.Len())
			}
			wantJ, wantC := exports(t, old)
			gotJ, gotC := exports(t, got)
			if !bytes.Equal(gotJ, wantJ) {
				t.Errorf("JSONL with Epochs differs from the loop:\n%s\nvs\n%s", gotJ, wantJ)
			}
			if !bytes.Equal(gotC, wantC) {
				t.Errorf("Chrome export with Epochs differs from the loop")
			}
			if !reflect.DeepEqual(gotSeen, oldSeen) {
				t.Errorf("the observer saw\n%v\nwith Epochs, and\n%v\nwith the loop", gotSeen, oldSeen)
			}
		})
	}
}

// TestStepsKeepTiesInPlace: a job that fails over runs again from the
// start under the same root ID, so the export's (start, ID) order ties
// spans that differ; with such ties, a run's leaves must export as the
// loop's do.
func TestStepsKeepTiesInPlace(t *testing.T) {
	build := func(emit epochsEmitter) *Tracer {
		tr := NewTracer()
		for attempt, epochs := range []int{1, 2} {
			root := tr.Root(TrackTuner, "tune", 42, 0, Int("attempt", int64(attempt)))
			end := time.Duration(epochs) * time.Second
			emit(root, "epoch", 0, end, epochs, "mini-batch", 4, 1)
			root.End(end)
		}
		return tr
	}
	wantJ, wantC := exports(t, build(epochsByLeaf))
	gotJ, gotC := exports(t, build((*Span).Epochs))
	if !bytes.Equal(gotJ, wantJ) || !bytes.Equal(gotC, wantC) {
		t.Errorf("with ties, Epochs exports differently from the loop")
	}
}

// TestExportOrderIsTotal: records that tie on (start, ID) but differ —
// a failed-over job's two "tune" roots — export in the same order
// whichever reached the buffer first, as concurrent jobs interleave.
func TestExportOrderIsTotal(t *testing.T) {
	// Each differs from the first in one field; the test sets name and
	// parent by hand, as a real ID hashes them in.
	type root struct {
		end    time.Duration
		track  int
		name   string
		parent SpanID
		attrs  []Attr
	}
	roots := []root{
		{5 * time.Second, TrackTuner, "tune", 0, nil},
		{9 * time.Second, TrackTuner, "tune", 0, nil},
		{5 * time.Second, TrackCluster, "tune", 0, nil},
		{5 * time.Second, TrackTuner, "tuning", 0, nil},
		{5 * time.Second, TrackTuner, "tune", 7, nil},
		{5 * time.Second, TrackTuner, "tune", 0, []Attr{Int("trials", 3)}},
		{5 * time.Second, TrackTuner, "tune", 0, []Attr{Int("trials", 4)}},
		{5 * time.Second, TrackTuner, "tune", 0, []Attr{Str("trials", "3")}},
	}
	build := func(order []int) *Tracer {
		tr := NewTracer()
		for _, i := range order {
			r := roots[i]
			sp := tr.Root(r.track, "tune", 42, 0, r.attrs...)
			sp.name, sp.parent = r.name, r.parent
			sp.End(r.end)
		}
		return tr
	}
	wantJ, wantC := exports(t, build([]int{0, 1, 2, 3, 4, 5, 6, 7}))
	for _, order := range [][]int{{7, 6, 5, 4, 3, 2, 1, 0}, {3, 1, 7, 5, 0, 6, 4, 2}} {
		gotJ, gotC := exports(t, build(order))
		if !bytes.Equal(gotJ, wantJ) || !bytes.Equal(gotC, wantC) {
			t.Errorf("buffer order %v exports differently:\n%s\nvs\n%s", order, gotJ, wantJ)
		}
	}
}

// TestStepsAtTheCap: wherever the buffer cap falls — inside an epoch's
// steps, on an epoch, between two runs or before the first — an Epochs
// call keeps the first leaves the per-epoch loop keeps, and counts and
// drops what it does.
func TestStepsAtTheCap(t *testing.T) {
	defer func(n int) { maxSpans = n }(maxSpans)
	build := func(emit epochsEmitter) *Tracer {
		tr := NewTracer()
		root := tr.Root(TrackTuner, "attempt", 1, 0)
		emit(root, "epoch", 0, time.Second, 3, "mini-batch", 10, 1)
		emit(root, "epoch", time.Second, 2*time.Second, 2, "mini-batch", 5, 2)
		root.End(2 * time.Second)
		return tr
	}
	const total = 3*(10+1) + 2*(3+1) + 1
	for limit := 0; limit <= total+1; limit++ {
		maxSpans = limit
		old, got := build(epochsByLeaf), build((*Span).Epochs)
		_, gotDropped := got.sorted()
		_, oldDropped := old.sorted()
		if got.Len() != old.Len() || gotDropped != oldDropped {
			t.Errorf("cap %d: Epochs kept %d and dropped %d, the loop %d and %d",
				limit, got.Len(), gotDropped, old.Len(), oldDropped)
		}
		wantJ, _ := exports(t, old)
		if gotJ, _ := exports(t, got); !bytes.Equal(gotJ, wantJ) {
			t.Errorf("cap %d: JSONL with Epochs differs from the loop:\n%s\nvs\n%s", limit, gotJ, wantJ)
		}
	}
}

// TestCutTraceSaysSo: a trace the buffer cap cut ends with one line
// counting the spans left out, which the analyzer reads as that count
// and the Chrome view leaves out; a trace the cap just holds exports as
// an uncapped one, with no such line.
func TestCutTraceSaysSo(t *testing.T) {
	defer func(n int) { maxSpans = n }(maxSpans)
	whole, _ := exports(t, buildTrace())
	maxSpans = buildTrace().Len()
	if got, _ := exports(t, buildTrace()); !bytes.Equal(got, whole) {
		t.Fatalf("a trace the cap just holds exports differently:\n%s\nvs\n%s", got, whole)
	}
	if bytes.Contains(whole, []byte(`"dropped"`)) {
		t.Fatalf("an uncut trace counts dropped spans:\n%s", whole)
	}

	maxSpans = 3
	cut := buildTrace()
	jsonl, chrome := exports(t, cut)
	if _, dropped := cut.sorted(); dropped != 2 || !bytes.HasSuffix(jsonl, []byte("}\n{\"dropped\":2}\n")) {
		t.Fatalf("a trace cut with %d spans dropped ends:\n%s", dropped, jsonl)
	}
	parsed, err := analyze.ParseJSONL(bytes.NewReader(jsonl))
	if err != nil || parsed.Malformed != 0 || parsed.Dropped != 2 || len(parsed.Spans) != 3 {
		t.Fatalf("the analyzer read %d spans, %d dropped, %d malformed (err %v)",
			len(parsed.Spans), parsed.Dropped, parsed.Malformed, err)
	}
	if n := bytes.Count(chrome, []byte(`"ph":"X"`)); n != 3 || bytes.Contains(chrome, []byte("dropped")) {
		t.Fatalf("the Chrome view of the cut trace holds %d spans:\n%s", n, chrome)
	}
}
