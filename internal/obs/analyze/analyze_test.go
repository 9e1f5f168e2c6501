package analyze

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// syntheticTrace is a hand-built JSONL trace exercising every report
// section: a request with queue wait, a serve whose first device attempt
// fails and whose retry succeeds, a bracket/rung/trial tree with energy attributes, and an admission span
// with a queue position.
const syntheticTrace = `{"id":1,"parent":0,"name":"request","track":2,"startNs":0,"durNs":1000,"attrs":[{"k":"outcome","v":"ok"}]}
{"id":2,"parent":1,"name":"admission","track":2,"startNs":0,"durNs":0,"attrs":[{"k":"verdict","v":"admitted"},{"k":"queuedAhead","v":3}]}
{"id":3,"parent":1,"name":"serve","track":2,"startNs":200,"durNs":800}
{"id":4,"parent":3,"name":"device-attempt","track":2,"startNs":200,"durNs":300,"attrs":[{"k":"device","v":"jetson"},{"k":"outcome","v":"fault:device-flap"},{"k":"energyJ","v":3}]}
{"id":5,"parent":3,"name":"device-attempt","track":2,"startNs":500,"durNs":500,"attrs":[{"k":"device","v":"jetson"},{"k":"outcome","v":"ok"},{"k":"energyJ","v":2.5}]}
{"id":6,"parent":3,"name":"store-write","track":2,"startNs":1000,"durNs":0,"attrs":[{"k":"ok","v":true}]}
{"id":7,"parent":0,"name":"request","track":2,"startNs":0,"durNs":50,"attrs":[{"k":"outcome","v":"overloaded"}]}
{"id":8,"parent":0,"name":"tune","track":1,"startNs":0,"durNs":5000}
{"id":9,"parent":8,"name":"bracket","track":1,"startNs":0,"durNs":5000,"attrs":[{"k":"bracket","v":0}]}
{"id":10,"parent":9,"name":"rung","track":1,"startNs":0,"durNs":5000,"attrs":[{"k":"rung","v":0}]}
{"id":11,"parent":10,"name":"trial","track":1,"startNs":0,"durNs":3000,"attrs":[{"k":"energyJ","v":10}]}
{"id":12,"parent":10,"name":"trial","track":1,"startNs":3000,"durNs":2000,"attrs":[{"k":"energyJ","v":4}]}
{"id":13,"parent":11,"name":"attempt","track":1,"startNs":0,"durNs":3000}
`

func parseString(t *testing.T, s string) *Trace {
	t.Helper()
	tr, err := ParseJSONL(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestParseJSONLMalformedLines(t *testing.T) {
	input := syntheticTrace +
		"{not json at all\n" +
		"\n" + // blank lines are skipped, not malformed
		`{"id":99,"parent":0,"startNs":1,"durNs":1}` + "\n" + // no name
		`{"id":14,"parent":0,"name":"request","track":2,"startNs":9000,"durNs":1` // truncated
	tr := parseString(t, input)
	if tr.Malformed != 3 {
		t.Errorf("malformed = %d, want 3 (errors: %v)", tr.Malformed, tr.Errors)
	}
	if len(tr.Errors) == 0 || len(tr.Errors) > maxParseErrors {
		t.Errorf("error samples = %v", tr.Errors)
	}
	if len(tr.Spans) != 13 {
		t.Errorf("spans = %d, want 13 good ones", len(tr.Spans))
	}
	// The analysis must survive a blemished trace and surface the count.
	rep := Analyze(tr)
	if rep.Malformed != 3 || rep.Spans != 13 {
		t.Errorf("report spans=%d malformed=%d", rep.Spans, rep.Malformed)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 malformed lines skipped") {
		t.Errorf("text report must surface malformed count:\n%s", buf.String())
	}
}

func TestAnalyzeSynthetic(t *testing.T) {
	rep := Analyze(parseString(t, syntheticTrace))

	if rep.Horizon != 5000*time.Nanosecond {
		t.Errorf("horizon = %v, want 5000ns", rep.Horizon)
	}

	// Queue decomposition: one served request, wait 200ns, service 800ns.
	if rep.Queue.Served != 1 || rep.Queue.Wait != 200 || rep.Queue.Service != 800 {
		t.Errorf("queue = %+v", rep.Queue)
	}
	if rep.Queue.WaitShare != 0.2 {
		t.Errorf("wait share = %g, want 0.2", rep.Queue.WaitShare)
	}
	if rep.Queue.QueuedAheadTotal != 3 || rep.Queue.QueuedAheadMax != 3 {
		t.Errorf("queued-ahead = %+v", rep.Queue)
	}

	// Devices: jetson 2 attempts over 800ns, 1 failure, 3J + 2.5J.
	if len(rep.Devices) != 1 {
		t.Fatalf("devices = %+v", rep.Devices)
	}
	if d := rep.Devices[0]; d.Device != "jetson" || d.Attempts != 2 || d.Failures != 1 || d.Busy != 800 || d.EnergyJ != 5.5 {
		t.Errorf("jetson = %+v", d)
	}

	// Rungs: bracket 0 rung 0, 2 trials, 5000ns, 14J.
	if len(rep.Rungs) != 1 {
		t.Fatalf("rungs = %+v", rep.Rungs)
	}
	if g := rep.Rungs[0]; g.Bracket != 0 || g.Rung != 0 || g.Trials != 2 || g.Total != 5000 || g.EnergyJ != 14 {
		t.Errorf("rung = %+v", g)
	}

	// Requests: 2 total, outcomes sorted, p-quantiles over the one ok.
	if rep.Requests.Total != 2 || len(rep.Requests.Outcomes) != 2 {
		t.Fatalf("requests = %+v", rep.Requests)
	}
	if rep.Requests.Outcomes[0].Outcome != "ok" || rep.Requests.Outcomes[1].Outcome != "overloaded" {
		t.Errorf("outcomes = %+v", rep.Requests.Outcomes)
	}
	if rep.Requests.P50 != 1000 || rep.Requests.P99 != 1000 {
		t.Errorf("latency quantiles = %+v", rep.Requests)
	}

	// Critical paths: the tune root's dominant chain descends through the
	// larger trial.
	var tunePath string
	for _, p := range rep.CriticalPaths {
		if p.Root == "tune" {
			tunePath = p.Path
		}
	}
	want := "tune > bracket > rung > trial > attempt"
	if tunePath != want {
		t.Errorf("tune critical path = %q, want %q", tunePath, want)
	}
}

// TestAnalyzeDeterministic: same trace bytes must yield byte-identical
// text and re-analysis.
func TestAnalyzeDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := Analyze(parseString(t, syntheticTrace)).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("non-deterministic analysis:\n%s\n---\n%s", a, b)
	}
}

func TestDiffReports(t *testing.T) {
	a := Analyze(parseString(t, syntheticTrace))
	// Same trace: nothing moves, nothing flagged.
	same := DiffReports(a, Analyze(parseString(t, syntheticTrace)), 0.10)
	if same.Flagged != 0 {
		t.Errorf("self-diff flagged %d classes: %+v", same.Flagged, same.Classes)
	}

	// Inflate the serve span 2× and drop the tuner track: serve must flag
	// as a regression and the tuner classes as one-sided.
	mutated := strings.ReplaceAll(syntheticTrace,
		`"name":"serve","track":2,"startNs":200,"durNs":800`,
		`"name":"serve","track":2,"startNs":200,"durNs":1600`)
	var kept []string
	for _, line := range strings.Split(mutated, "\n") {
		if strings.Contains(line, `"track":1`) {
			continue
		}
		kept = append(kept, line)
	}
	b := Analyze(parseString(t, strings.Join(kept, "\n")))
	d := DiffReports(a, b, 0.10)
	if d.Flagged == 0 {
		t.Fatalf("mutated diff flagged nothing: %+v", d.Classes)
	}
	byName := map[string]ClassDelta{}
	for _, c := range d.Classes {
		byName[c.Name] = c
	}
	if c := byName["serve"]; !c.Flagged || c.Rel != 1.0 {
		t.Errorf("serve delta = %+v, want flagged +100%%", c)
	}
	if c := byName["trial"]; !c.Flagged || c.CountB != 0 {
		t.Errorf("trial delta = %+v, want flagged one-sided", c)
	}

	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "! serve") {
		t.Errorf("text diff must mark flagged classes:\n%s", buf.String())
	}
}

// TestChromeSkipsWhatParseJSONLSkips: Chrome reads through ParseJSONL's
// ingest, so it converts exactly the spans ParseJSONL keeps, a key that
// is not a string making its line malformed in both; args come out
// ordered by key, a later attribute replacing the span's id.
func TestChromeSkipsWhatParseJSONLSkips(t *testing.T) {
	input := syntheticTrace +
		"{not json at all\n" +
		`{"id":99,"parent":0,"startNs":1,"durNs":1}` + "\n" +
		`{"id":98,"name":"bad key","attrs":[{"k":1,"v":2}]}` + "\n" +
		`{"id":97,"name":"keys","track":7,"startNs":1500,"attrs":[{"k":"z","v":1},{"k":"id","v":"x"},{"v":[1, 2]},{"k":"a"}]}` + "\n" +
		`{"id":14,"parent":0,"name":"request","track":2,"startNs":9000,"durNs":1`
	tr := parseString(t, input)
	var out bytes.Buffer
	if err := Chrome(&out, strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), `"ph":"X"`); got != len(tr.Spans) || tr.Malformed != 4 {
		t.Errorf("Chrome wrote %d spans, ParseJSONL kept %d and counted %d malformed", got, len(tr.Spans), tr.Malformed)
	}
	want := `{"name":"keys","cat":"edgetune","ph":"X","ts":1.5,"pid":1,"tid":7,"args":{"":[1,2],"a":null,"id":"x","z":1}}`
	if !strings.Contains(out.String(), want) {
		t.Errorf("Chrome view lacks\n%s\nin\n%s", want, out.String())
	}
	if !strings.Contains(out.String(), `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":7,"args":{"name":"track-7"}}`) {
		t.Errorf("an unknown track is not named track-7:\n%s", out.String())
	}
}

// TestCutTrace: the {"dropped":N} line that ends a trace the tracer's
// buffer cap cut is read as the count of spans left out, not as a
// malformed line; the report prints it and the Chrome view leaves it
// out. A nameless line that counts nothing is still malformed.
func TestCutTrace(t *testing.T) {
	cut := syntheticTrace + `{"dropped":7}` + "\n"
	tr := parseString(t, cut)
	if tr.Dropped != 7 || tr.Malformed != 0 || len(tr.Spans) != 13 {
		t.Fatalf("read %d spans, %d dropped, %d malformed (errors %v)", len(tr.Spans), tr.Dropped, tr.Malformed, tr.Errors)
	}
	rep := Analyze(tr)
	var text, whole bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "(cut: 7 spans dropped at the tracer's cap)") {
		t.Errorf("the report does not say the trace was cut:\n%s", text.String())
	}
	if err := Analyze(parseString(t, syntheticTrace)).WriteText(&whole); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(whole.String(), "dropped") || rep.Dropped != 7 {
		t.Errorf("report dropped %d; a whole trace's report reads:\n%s", rep.Dropped, whole.String())
	}

	var wantChrome, gotChrome bytes.Buffer
	if err := Chrome(&wantChrome, strings.NewReader(syntheticTrace)); err != nil {
		t.Fatal(err)
	}
	if err := Chrome(&gotChrome, strings.NewReader(cut)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotChrome.Bytes(), wantChrome.Bytes()) {
		t.Errorf("the Chrome view of the cut trace differs from the spans' own")
	}

	for _, line := range []string{`{"dropped":0}`, `{"dropped":-2}`} {
		if tr := parseString(t, syntheticTrace+line+"\n"); tr.Malformed != 1 || tr.Dropped != 0 {
			t.Errorf("%s: %d malformed, %d dropped; want 1, 0", line, tr.Malformed, tr.Dropped)
		}
	}
}
