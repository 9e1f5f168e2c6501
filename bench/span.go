package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made, on the wall clock in
// nanoseconds since the recorder was made. Spans of one op share Op;
// Parent is 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder is the harness's own in-memory span recorder, used only in
// the traced run. Spans stay in memory until the workload has ended. A
// nil *recorder records nothing, so the measured run shares the code.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 from a nil recorder).
func (r *recorder) begin(parent int, name string, op int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op, StartNs: now})
	id := len(r.spans)
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].EndNs = now
	r.mu.Unlock()
}

// add records a span whose start and end the caller already timed, and
// returns its id.
func (r *recorder) add(parent int, name string, op int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Op: op,
		StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch))})
	return len(r.spans)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover (overlapping children are
// counted once). The result is indexed like spans.
func selfTimes(spans []span) []int64 {
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if _, ok := byID[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNs < spans[ks[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range ks {
			lo, hi := max(spans[k].StartNs, edge), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.EndNs - s.StartNs) - covered
	}
	return out
}

// selfByName sums self time and counts spans per name.
func selfByName(spans []span) map[string]nameTotal {
	self := selfTimes(spans)
	out := make(map[string]nameTotal)
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.SelfNs += self[i]
		t.TotalNs += s.EndNs - s.StartNs
		out[s.Name] = t
	}
	return out
}

// nameTotal is one row of the per-name trace summary in result.json.
type nameTotal struct {
	Count   int   `json:"count"`
	SelfNs  int64 `json:"selfNs"`
	TotalNs int64 `json:"totalNs"`
}
