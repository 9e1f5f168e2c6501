// Package analyze turns the deterministic JSONL span traces of the obs
// tracer into machine-checkable answers: where did the time go
// (critical paths), how much of a request was queueing vs service,
// and which devices and rungs consumed the time and energy. It is
// stdlib-only, and every report is
// deterministic — same trace bytes, same report bytes — so two
// same-seed runs analyse byte-identically and traces can be diffed as
// regression gates.
//
// Ingestion is robust by design: a malformed or truncated line is
// counted and sampled into the report instead of aborting the analysis
// (a trace cut short by a crash is exactly when the analysis matters).
package analyze

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one parsed trace span.
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	Track  int
	Start  time.Duration
	Dur    time.Duration
	Attrs  map[string]any
}

// End is the span's finish time on the simulated clock.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// attrStr reads a string attribute ("" when absent or mistyped).
func (s Span) attrStr(key string) string {
	v, _ := s.Attrs[key].(string)
	return v
}

// attrFloat reads a numeric attribute (0 when absent or mistyped).
// JSON numbers decode as float64, so integer attributes land here too.
func (s Span) attrFloat(key string) float64 {
	v, _ := s.Attrs[key].(float64)
	return v
}

// Trace is a parsed span file plus its ingestion blemishes.
type Trace struct {
	Spans []Span
	// Malformed counts lines that failed to parse; Errors samples the
	// first few parse failures for the report.
	Malformed int
	Errors    []string
	// Dropped is the count of spans the tracer's buffer cap left out, as
	// the {"dropped":N} line that ends a cut trace states it; 0 for a
	// whole trace.
	Dropped int64
}

// maxParseErrors caps the sampled parse failures.
const maxParseErrors = 5

// spanLine mirrors the tracer's JSONL export shape, its name decoded
// into an N and its attribute values into a V. Dropped is set only on
// the nameless line that ends a cut trace.
type spanLine[N, V any] struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   N      `json:"name"`
	Track  int    `json:"track"`
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"`
	Attrs  []struct {
		K string `json:"k"`
		V V      `json:"v"`
	} `json:"attrs"`
	Dropped int64 `json:"dropped"`
}

// jsonSpan is a line as ParseJSONL reads it, a defined type so that a
// decode error names it; rawSpan is one as Chrome copies it.
type jsonSpan spanLine[string, any]
type rawSpan spanLine[json.RawMessage, json.RawMessage]

// scan decodes each non-blank line of r into a new T and hands it to
// keep. A line that does not decode, or that keep refuses, is counted
// and sampled into tr as malformed; the error covers only the reader.
func scan[T any](r io.Reader, tr *Trace, keep func(*T) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var js T
		err := json.Unmarshal(raw, &js)
		if err == nil && keep(&js) {
			continue
		}
		tr.Malformed++
		if len(tr.Errors) < maxParseErrors {
			msg := fmt.Sprintf("line %d: not a span", line)
			if err != nil {
				msg = fmt.Sprintf("line %d: %v", line, err)
			}
			tr.Errors = append(tr.Errors, msg)
		}
	}
	return sc.Err()
}

// ParseJSONL reads one span per line. A line without a name that
// counts dropped spans, {"dropped":N}, adds N to the trace's Dropped.
// Unparseable lines (corruption, truncation) and other lines without a
// name are counted and sampled, never fatal; the returned error covers
// only the reader itself.
func ParseJSONL(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	err := scan(r, tr, func(js *jsonSpan) bool {
		if js.Name == "" {
			if js.Dropped <= 0 {
				return false
			}
			tr.Dropped += js.Dropped
			return true
		}
		sp := Span{
			ID:     js.ID,
			Parent: js.Parent,
			Name:   js.Name,
			Track:  js.Track,
			Start:  time.Duration(js.Start),
			Dur:    time.Duration(js.Dur),
		}
		if len(js.Attrs) > 0 {
			sp.Attrs = make(map[string]any, len(js.Attrs))
			for _, a := range js.Attrs {
				sp.Attrs[a.K] = a.V
			}
		}
		tr.Spans = append(tr.Spans, sp)
		return true
	})
	return tr, err
}

// ParseFile reads a JSONL trace from path.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseJSONL(f)
}

// ClassStat aggregates one span class (all spans sharing a name).
type ClassStat struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"totalNs"`
	Min   time.Duration `json:"minNs"`
	Max   time.Duration `json:"maxNs"`
}

// Mean is the class's mean span duration.
func (c ClassStat) Mean() time.Duration {
	if c.Count == 0 {
		return 0
	}
	return c.Total / time.Duration(c.Count)
}

// PathStat aggregates one critical path: the chain of dominant child
// spans under one root class.
type PathStat struct {
	Root  string        `json:"root"`
	Path  string        `json:"path"`
	Count int           `json:"count"`
	Total time.Duration `json:"totalNs"`
	// Share is Total over the summed duration of all paths under the
	// same root class.
	Share float64 `json:"share"`
}

// QueueStats decomposes served requests into admission-queue wait and
// service time, plus the queue-position samples the admission gate
// stamps on its spans.
type QueueStats struct {
	// Served counts requests with a serve phase (uncached admissions).
	Served int `json:"served"`
	// Wait sums serve.start − request.start: time between submission and
	// a worker picking the request up, on the simulated clock.
	Wait time.Duration `json:"waitNs"`
	// Service sums the serve spans' durations.
	Service time.Duration `json:"serviceNs"`
	// WaitShare is Wait / (Wait + Service).
	WaitShare float64 `json:"waitShare"`
	// QueuedAheadTotal and QueuedAheadMax aggregate the "queuedAhead"
	// admission-span attribute: how many requests sat ahead in the queue
	// at enqueue.
	QueuedAheadTotal int64 `json:"queuedAheadTotal"`
	QueuedAheadMax   int64 `json:"queuedAheadMax"`
}

// DeviceStat is one pool device's serving breakdown.
type DeviceStat struct {
	Device   string        `json:"device"`
	Attempts int           `json:"attempts"`
	Failures int           `json:"failures"`
	Busy     time.Duration `json:"busyNs"`
	EnergyJ  float64       `json:"energyJ"`
}

// RungStat is one successive-halving rung's breakdown.
type RungStat struct {
	Bracket int           `json:"bracket"`
	Rung    int           `json:"rung"`
	Trials  int           `json:"trials"`
	Total   time.Duration `json:"totalNs"`
	EnergyJ float64       `json:"energyJ"`
}

// OutcomeCount is one request-outcome tally.
type OutcomeCount struct {
	Outcome string `json:"outcome"`
	Count   int    `json:"count"`
}

// RequestStats summarises the serving track's request spans.
type RequestStats struct {
	Total    int            `json:"total"`
	Outcomes []OutcomeCount `json:"outcomes,omitempty"`
	// P50/P95/P99 are exact (nearest-rank) quantiles of successful
	// request latencies on the simulated clock.
	P50 time.Duration `json:"p50Ns"`
	P95 time.Duration `json:"p95Ns"`
	P99 time.Duration `json:"p99Ns"`
}

// Report is a full trace analysis. All slices are deterministically
// sorted, so same trace bytes yield same report bytes.
type Report struct {
	Spans     int      `json:"spans"`
	Malformed int      `json:"malformed"`
	Errors    []string `json:"errors,omitempty"`
	// Dropped is the count of spans the tracer left out of a cut trace.
	Dropped int64 `json:"dropped,omitempty"`
	// Horizon is the latest span end time.
	Horizon       time.Duration `json:"horizonNs"`
	Classes       []ClassStat   `json:"classes,omitempty"`
	CriticalPaths []PathStat    `json:"criticalPaths,omitempty"`
	Queue         QueueStats    `json:"queue"`
	Devices       []DeviceStat  `json:"devices,omitempty"`
	Rungs         []RungStat    `json:"rungs,omitempty"`
	Requests      RequestStats  `json:"requests"`
}

// index is the analyser's working view of a trace.
type index struct {
	byID     map[uint64]int
	children map[uint64][]int
	spans    []Span
}

func buildIndex(spans []Span) *index {
	ix := &index{
		byID:     make(map[uint64]int, len(spans)),
		children: make(map[uint64][]int),
		spans:    spans,
	}
	for i, sp := range spans {
		ix.byID[sp.ID] = i
		if sp.Parent != 0 {
			ix.children[sp.Parent] = append(ix.children[sp.Parent], i)
		}
	}
	for _, kids := range ix.children {
		sort.Slice(kids, func(a, b int) bool {
			sa, sb := ix.spans[kids[a]], ix.spans[kids[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.ID < sb.ID
		})
	}
	return ix
}

// criticalPath walks from root to leaf, at each level descending into
// the child with the largest duration (ties resolved by smallest ID, so
// the walk is deterministic), and returns the chain of span names.
func (ix *index) criticalPath(root int) string {
	names := []string{ix.spans[root].Name}
	cur := root
	for depth := 0; depth < 32; depth++ {
		kids := ix.children[ix.spans[cur].ID]
		if len(kids) == 0 {
			break
		}
		best := -1
		for _, k := range kids {
			if best < 0 ||
				ix.spans[k].Dur > ix.spans[best].Dur ||
				(ix.spans[k].Dur == ix.spans[best].Dur && ix.spans[k].ID < ix.spans[best].ID) {
				best = k
			}
		}
		names = append(names, ix.spans[best].Name)
		cur = best
	}
	return strings.Join(names, " > ")
}

// Analyze computes the full report for a parsed trace.
func Analyze(tr *Trace) *Report {
	rep := &Report{
		Spans:     len(tr.Spans),
		Malformed: tr.Malformed,
		Errors:    append([]string(nil), tr.Errors...),
		Dropped:   tr.Dropped,
	}
	ix := buildIndex(tr.Spans)

	classes := map[string]*ClassStat{}
	paths := map[string]*PathStat{}
	pathRootTotals := map[string]time.Duration{}
	devices := map[string]*DeviceStat{}
	rungs := map[[2]int]*RungStat{}
	outcomes := map[string]int{}
	var okLatencies []time.Duration

	for i, sp := range tr.Spans {
		if end := sp.End(); end > rep.Horizon {
			rep.Horizon = end
		}
		cs, ok := classes[sp.Name]
		if !ok {
			cs = &ClassStat{Name: sp.Name, Min: sp.Dur, Max: sp.Dur}
			classes[sp.Name] = cs
		}
		cs.Count++
		cs.Total += sp.Dur
		if sp.Dur < cs.Min {
			cs.Min = sp.Dur
		}
		if sp.Dur > cs.Max {
			cs.Max = sp.Dur
		}

		// Critical paths for the pipeline's units of work: whole-job and
		// request roots, plus each training trial.
		if sp.Parent == 0 || sp.Name == "trial" {
			path := ix.criticalPath(i)
			ps, ok := paths[sp.Name+"\x00"+path]
			if !ok {
				ps = &PathStat{Root: sp.Name, Path: path}
				paths[sp.Name+"\x00"+path] = ps
			}
			ps.Count++
			ps.Total += sp.Dur
			pathRootTotals[sp.Name] += sp.Dur
		}

		switch sp.Name {
		case "request":
			rep.Requests.Total++
			oc := sp.attrStr("outcome")
			if oc == "" {
				oc = "unknown"
			}
			outcomes[oc]++
			if oc == "ok" {
				okLatencies = append(okLatencies, sp.Dur)
			}
			// Wait vs service: the gap between submission and the serve
			// phase is queue wait; the serve span is service.
			for _, k := range ix.children[sp.ID] {
				child := ix.spans[k]
				if child.Name != "serve" {
					continue
				}
				rep.Queue.Served++
				if w := child.Start - sp.Start; w > 0 {
					rep.Queue.Wait += w
				}
				rep.Queue.Service += child.Dur
				break
			}
		case "admission":
			if ahead, ok := sp.Attrs["queuedAhead"].(float64); ok {
				n := int64(ahead)
				rep.Queue.QueuedAheadTotal += n
				if n > rep.Queue.QueuedAheadMax {
					rep.Queue.QueuedAheadMax = n
				}
			}
		case "device-attempt":
			name := sp.attrStr("device")
			if name == "" {
				name = "unknown"
			}
			ds, ok := devices[name]
			if !ok {
				ds = &DeviceStat{Device: name}
				devices[name] = ds
			}
			ds.Attempts++
			ds.Busy += sp.Dur
			ds.EnergyJ += sp.attrFloat("energyJ")
			if out := sp.attrStr("outcome"); out != "" && out != "ok" {
				ds.Failures++
			}
		case "rung":
			bracket := -1
			if p, ok := ix.byID[sp.Parent]; ok && ix.spans[p].Name == "bracket" {
				bracket = int(ix.spans[p].attrFloat("bracket"))
			}
			key := [2]int{bracket, int(sp.attrFloat("rung"))}
			rs, ok := rungs[key]
			if !ok {
				rs = &RungStat{Bracket: key[0], Rung: key[1]}
				rungs[key] = rs
			}
			rs.Total += sp.Dur
			for _, k := range ix.children[sp.ID] {
				child := ix.spans[k]
				if child.Name != "trial" {
					continue
				}
				rs.Trials++
				rs.EnergyJ += child.attrFloat("energyJ")
			}
		}
	}

	if t := rep.Queue.Wait + rep.Queue.Service; t > 0 {
		rep.Queue.WaitShare = float64(rep.Queue.Wait) / float64(t)
	}

	for _, cs := range classes {
		rep.Classes = append(rep.Classes, *cs)
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Name < rep.Classes[j].Name })

	for _, ps := range paths {
		if t := pathRootTotals[ps.Root]; t > 0 {
			ps.Share = float64(ps.Total) / float64(t)
		}
		rep.CriticalPaths = append(rep.CriticalPaths, *ps)
	}
	sort.Slice(rep.CriticalPaths, func(i, j int) bool {
		a, b := rep.CriticalPaths[i], rep.CriticalPaths[j]
		if a.Root != b.Root {
			return a.Root < b.Root
		}
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return a.Path < b.Path
	})

	for _, ds := range devices {
		rep.Devices = append(rep.Devices, *ds)
	}
	sort.Slice(rep.Devices, func(i, j int) bool { return rep.Devices[i].Device < rep.Devices[j].Device })

	for _, rs := range rungs {
		rep.Rungs = append(rep.Rungs, *rs)
	}
	sort.Slice(rep.Rungs, func(i, j int) bool {
		a, b := rep.Rungs[i], rep.Rungs[j]
		if a.Bracket != b.Bracket {
			return a.Bracket < b.Bracket
		}
		return a.Rung < b.Rung
	})

	for oc, n := range outcomes {
		rep.Requests.Outcomes = append(rep.Requests.Outcomes, OutcomeCount{Outcome: oc, Count: n})
	}
	sort.Slice(rep.Requests.Outcomes, func(i, j int) bool {
		return rep.Requests.Outcomes[i].Outcome < rep.Requests.Outcomes[j].Outcome
	})
	sort.Slice(okLatencies, func(i, j int) bool { return okLatencies[i] < okLatencies[j] })
	rep.Requests.P50 = nearestRank(okLatencies, 0.50)
	rep.Requests.P95 = nearestRank(okLatencies, 0.95)
	rep.Requests.P99 = nearestRank(okLatencies, 0.99)
	return rep
}

// nearestRank is the exact q-quantile of a sorted sample.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// WriteText renders the report as stable plaintext.
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace: %d spans, horizon %s", r.Spans, r.Horizon)
	if r.Malformed > 0 {
		fmt.Fprintf(bw, " (%d malformed lines skipped)", r.Malformed)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(bw, " (cut: %d spans dropped at the tracer's cap)", r.Dropped)
	}
	fmt.Fprintln(bw)
	for _, e := range r.Errors {
		fmt.Fprintf(bw, "  parse error: %s\n", e)
	}

	fmt.Fprintln(bw, "\nspan classes:")
	for _, c := range r.Classes {
		fmt.Fprintf(bw, "  %-16s count=%-5d total=%-14s mean=%-12s min=%-12s max=%s\n",
			c.Name, c.Count, c.Total, c.Mean(), c.Min, c.Max)
	}

	fmt.Fprintln(bw, "\ncritical paths (dominant chain per unit of work):")
	for _, p := range r.CriticalPaths {
		fmt.Fprintf(bw, "  %5.1f%%  %-9s ×%-4d %-12s %s\n",
			p.Share*100, p.Root, p.Count, p.Total, p.Path)
	}

	fmt.Fprintf(bw, "\nqueue wait vs service (served requests: %d):\n", r.Queue.Served)
	fmt.Fprintf(bw, "  wait=%s service=%s wait-share=%.1f%%\n",
		r.Queue.Wait, r.Queue.Service, r.Queue.WaitShare*100)
	fmt.Fprintf(bw, "  queued-ahead total=%d max=%d\n",
		r.Queue.QueuedAheadTotal, r.Queue.QueuedAheadMax)

	if len(r.Devices) > 0 {
		fmt.Fprintln(bw, "\nper-device breakdown:")
		for _, d := range r.Devices {
			fmt.Fprintf(bw, "  %-10s attempts=%-4d failures=%-3d busy=%-14s energy=%.1fJ\n",
				d.Device, d.Attempts, d.Failures, d.Busy, d.EnergyJ)
		}
	}

	if len(r.Rungs) > 0 {
		fmt.Fprintln(bw, "\nper-rung breakdown:")
		for _, g := range r.Rungs {
			fmt.Fprintf(bw, "  bracket %d rung %d: trials=%-4d time=%-14s energy=%.1fJ\n",
				g.Bracket, g.Rung, g.Trials, g.Total, g.EnergyJ)
		}
	}

	fmt.Fprintf(bw, "\nrequests (%d):\n", r.Requests.Total)
	for _, oc := range r.Requests.Outcomes {
		fmt.Fprintf(bw, "  %-18s %d\n", oc.Outcome, oc.Count)
	}
	fmt.Fprintf(bw, "  latency p50=%s p95=%s p99=%s\n",
		r.Requests.P50, r.Requests.P95, r.Requests.P99)
	return bw.Flush()
}
