package slo

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"edgetune/internal/testutil"
)

func TestNilSafety(t *testing.T) {
	var e *Evaluator
	o := e.Register(Spec{Name: "x", Target: 0.99})
	if o != nil {
		t.Fatal("nil evaluator must return a nil objective")
	}
	o.Record(time.Second, true) // must not panic
	snap := e.Snapshot()
	if len(snap.Objectives) != 0 || snap.Horizon != 0 {
		t.Fatalf("nil evaluator snapshot = %+v, want zero", snap)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	e := NewEvaluator()
	a := e.Register(Spec{Name: "avail", Target: 0.99})
	b := e.Register(Spec{Name: "avail", Target: 0.5})
	if a != b {
		t.Fatal("re-registering a name must return the existing objective")
	}
	a.Record(time.Minute, true)
	snap := e.Snapshot()
	rep, ok := snap.Objective("avail")
	if !ok || rep.Target != 0.99 || rep.Events != 1 {
		t.Fatalf("objective report = %+v (ok=%v)", rep, ok)
	}
}

func TestSpecDefaults(t *testing.T) {
	e := NewEvaluator()
	e.Register(Spec{Name: "d", Target: 2.0}) // out of range → default
	rep, _ := e.Snapshot().Objective("d")
	if rep.Target != 0.99 {
		t.Errorf("target = %g, want default 0.99", rep.Target)
	}
	if rep.BurnThreshold != 14.4 {
		t.Errorf("burn threshold = %g, want 14.4", rep.BurnThreshold)
	}
	if len(rep.Windows) != 2 {
		t.Errorf("windows = %d, want the 5m/30m pair", len(rep.Windows))
	}
}

// TestBurnRateAlert: an objective burning its budget far beyond the
// threshold in both windows alerts; a compliant one does not.
func TestBurnRateAlert(t *testing.T) {
	e := NewEvaluator()
	hot := e.Register(Spec{Name: "hot", Target: 0.99})
	cool := e.Register(Spec{Name: "cool", Target: 0.99})

	// One event per simulated minute over an hour; "hot" fails half of
	// them (error rate 0.5 → burn 50), "cool" fails none.
	for i := 0; i < 60; i++ {
		at := time.Duration(i) * time.Minute
		hot.Record(at, i%2 == 0)
		cool.Record(at, true)
	}
	snap := e.Snapshot()
	if snap.Horizon != 59*time.Minute {
		t.Errorf("horizon = %v, want 59m", snap.Horizon)
	}
	h, _ := snap.Objective("hot")
	if !h.Alerting {
		t.Errorf("hot objective not alerting: %+v", h)
	}
	if h.ErrorBudgetUsed < 10 {
		t.Errorf("hot budget used = %g, want ~50", h.ErrorBudgetUsed)
	}
	c, _ := snap.Objective("cool")
	if c.Alerting || c.Errors != 0 || c.GoodFraction != 1 {
		t.Errorf("cool objective misreported: %+v", c)
	}
	if !snap.Alerting() {
		t.Error("snapshot must report an alert")
	}
}

// TestMultiWindowRequiresBothWindows: errors confined to the past burn
// the long window but not the short one — no alert (the condition is
// over, the page would be noise).
func TestMultiWindowRequiresBothWindows(t *testing.T) {
	e := NewEvaluator()
	o := e.Register(Spec{Name: "past", Target: 0.99})
	// One event a minute for an hour: errors in minutes 30–39 only. The
	// 30-minute window [29m, 59m] holds all ten (burn ≈ 32), the
	// 5-minute window [54m, 59m] none.
	for i := 0; i < 60; i++ {
		o.Record(time.Duration(i)*time.Minute, i < 30 || i >= 40)
	}
	rep, _ := e.Snapshot().Objective("past")
	if rep.Alerting {
		t.Fatalf("stale burn must not alert: %+v", rep)
	}
	if len(rep.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(rep.Windows))
	}
	if rep.Windows[0].Errors != 0 {
		t.Errorf("short window errors = %d, want 0", rep.Windows[0].Errors)
	}
	if rep.Windows[1].Errors != 10 {
		t.Errorf("long window errors = %d, want 10", rep.Windows[1].Errors)
	}
	if rep.Windows[1].BurnRate < rep.BurnThreshold {
		t.Errorf("long window burn = %g, want past the threshold — the silence must come from the short window alone", rep.Windows[1].BurnRate)
	}
}

// TestWindowClampedToHorizon: a run shorter than a window evaluates
// over the whole run instead of an empty (never-alerting) window.
func TestWindowClampedToHorizon(t *testing.T) {
	e := NewEvaluator()
	o := e.Register(Spec{Name: "short", Target: 0.99})
	o.Record(time.Minute, false)
	o.Record(2*time.Minute, false)
	rep, _ := e.Snapshot().Objective("short")
	for i, wb := range rep.Windows {
		if wb.Window != 2*time.Minute {
			t.Errorf("window %d = %v, want clamped to 2m", i, wb.Window)
		}
	}
	if !rep.Alerting {
		t.Errorf("fully-burning short run must alert: %+v", rep)
	}
}

// TestAlertClearsWhenFastWindowAgesOut: an alert is a statement about
// the present, so once enough good events move the horizon past the
// error burst, the fast window contains no errors and the alert must
// clear — even while the slow window is still burning over the burst.
func TestAlertClearsWhenFastWindowAgesOut(t *testing.T) {
	e := NewEvaluator()
	o := e.Register(Spec{Name: "burst", Target: 0.99})

	// A ten-minute all-error burst: every window burns, the alert fires.
	for i := 0; i < 10; i++ {
		o.Record(time.Duration(i)*time.Minute, false)
	}
	rep, _ := e.Snapshot().Objective("burst")
	if !rep.Alerting {
		t.Fatalf("mid-burst objective must alert: %+v", rep)
	}

	// Ten minutes of good events: the horizon advances to 19m, so the
	// fast window [14m, 19m] has aged out every error event.
	for i := 10; i < 20; i++ {
		o.Record(time.Duration(i)*time.Minute, true)
	}
	rep, _ = e.Snapshot().Objective("burst")
	if rep.Alerting {
		t.Fatalf("alert must clear once the fast window ages out the burst: %+v", rep)
	}
	if rep.Windows[0].Errors != 0 {
		t.Errorf("fast window errors = %d, want 0 (aged out)", rep.Windows[0].Errors)
	}
	if rep.Windows[1].Errors != 10 {
		t.Errorf("slow window errors = %d, want the full burst of 10", rep.Windows[1].Errors)
	}
	if rep.Windows[1].BurnRate < rep.BurnThreshold {
		t.Errorf("slow window burn = %g, want still past threshold — the clear must come from the fast window alone", rep.Windows[1].BurnRate)
	}
}

func TestNoEventsObjective(t *testing.T) {
	e := NewEvaluator()
	e.Register(Spec{Name: "idle", Target: 0.99})
	rep, ok := e.Snapshot().Objective("idle")
	if !ok {
		t.Fatal("idle objective missing from snapshot")
	}
	if rep.Alerting || rep.GoodFraction != 1 || rep.ErrorBudgetUsed != 0 {
		t.Errorf("idle objective = %+v, want compliant", rep)
	}
}

// TestSnapshotDeterministic: the snapshot depends only on the event
// multiset, not the recording order, and marshals byte-identically.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(reverse bool) []byte {
		e := NewEvaluator()
		o := e.Register(Spec{Name: "det", Target: 0.95})
		n := 100
		for i := 0; i < n; i++ {
			j := i
			if reverse {
				j = n - 1 - i
			}
			o.Record(time.Duration(j)*time.Second, j%7 != 0)
		}
		data, err := json.Marshal(e.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(false), build(true)
	if !bytes.Equal(a, b) {
		t.Errorf("order-dependent snapshots:\n%s\n%s", a, b)
	}
}

func TestHandler(t *testing.T) {
	e := NewEvaluator()
	e.Register(Spec{Name: "h", Target: 0.99}).Record(time.Minute, false)

	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap.Objective("h"); !ok {
		t.Fatalf("handler snapshot missing objective: %+v", snap)
	}

	resp, err = http.Get(srv.URL + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("objective h ")) {
		t.Fatalf("text format missing objective line:\n%s", body)
	}
}

func TestWriteTextStable(t *testing.T) {
	e := NewEvaluator()
	e.Register(Spec{Name: "b", Target: 0.9}).Record(time.Minute, true)
	e.Register(Spec{Name: "a", Target: 0.9}).Record(time.Minute, false)
	var x, y bytes.Buffer
	if err := e.Snapshot().WriteText(&x); err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot().WriteText(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Errorf("unstable text output:\n%s\n---\n%s", x.String(), y.String())
	}
	if x.Len() == 0 || bytes.Index(x.Bytes(), []byte("objective a")) > bytes.Index(x.Bytes(), []byte("objective b")) {
		t.Errorf("objectives not sorted by name:\n%s", x.String())
	}
}

// refEvent and refSnapshot are the evaluator this package had when an
// objective kept every event, kept as the reference the run counts must
// reproduce exactly. It holds its own copy of the alert rule.
type refEvent struct {
	t    time.Duration
	good bool
}

func refSnapshot(specs []Spec, events [][]refEvent) Snapshot {
	const threshold = 14.4
	var snap Snapshot
	for _, evs := range events {
		for _, ev := range evs {
			snap.Horizon = max(snap.Horizon, ev.t)
		}
	}
	for i, spec := range specs {
		rep := ObjectiveReport{Name: spec.Name, Description: spec.Description, Target: spec.Target,
			BurnThreshold: threshold, GoodFraction: 1}
		budget := 1 - spec.Target
		for _, ev := range events[i] {
			rep.Events++
			if !ev.good {
				rep.Errors++
			}
		}
		if rep.Events > 0 {
			errRate := float64(rep.Errors) / float64(rep.Events)
			rep.GoodFraction = 1 - errRate
			rep.ErrorBudgetUsed = errRate / budget
		}
		rep.Alerting = rep.Events > 0
		for _, w := range []time.Duration{5 * time.Minute, 30 * time.Minute} {
			if w > snap.Horizon {
				w = snap.Horizon
			}
			wb := WindowBurn{Window: w}
			for _, ev := range events[i] {
				if ev.t < snap.Horizon-w {
					continue
				}
				wb.Events++
				if !ev.good {
					wb.Errors++
				}
			}
			if wb.Events > 0 {
				wb.ErrorRate = float64(wb.Errors) / float64(wb.Events)
				wb.BurnRate = wb.ErrorRate / budget
			}
			if wb.BurnRate < threshold {
				rep.Alerting = false
			}
			rep.Windows = append(rep.Windows, wb)
		}
		snap.Objectives = append(snap.Objectives, rep)
	}
	sort.Slice(snap.Objectives, func(i, j int) bool { return snap.Objectives[i].Name < snap.Objectives[j].Name })
	return snap
}

// randomStream draws n events ending near horizon: runs of repeated
// times and verdicts, distinct rising times, and out-of-order times —
// some far enough back to land below the fold line of a folded
// objective.
func randomStream(rng *rand.Rand, n int, horizon time.Duration) []refEvent {
	out := make([]refEvent, 0, n)
	var t time.Duration
	good := true
	for i := 0; i < n; i++ {
		at := t
		switch r := rng.Intn(10); {
		case r < 4: // repeat the last time (and, mostly, the verdict)
		case r < 8:
			t = min(t+time.Duration(rng.Int63n(int64(5*horizon/time.Duration(n))+1)), horizon)
			at = t
		default: // out of order: anywhere back to the start of the run
			at = time.Duration(rng.Int63n(int64(t) + 1))
		}
		if rng.Intn(4) == 0 {
			good = rng.Intn(5) != 0
		}
		out = append(out, refEvent{t: at, good: good})
	}
	return out
}

// TestSnapshotMatchesEventList: on seeded random streams, a snapshot
// of the run counts equals, field for field, the evaluation of the full
// event list — before and after folds, at horizons shorter and longer
// than the 30-minute window, for two objectives whose latest events lie
// apart — one burning past the alert threshold, one below it — and with
// four goroutines recording at once.
func TestSnapshotMatchesEventList(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, horizon := range []time.Duration{10 * time.Minute, 5 * time.Hour} {
			rng := rand.New(rand.NewSource(seed))
			e := NewEvaluator()
			objs := []*Objective{
				e.Register(Spec{Name: "a", Target: 0.99}),
				e.Register(Spec{Name: "b", Target: 0.95}),
			}
			// b's events end at a third of a's horizon.
			streams := [][]refEvent{randomStream(rng, 6000, horizon), randomStream(rng, 6000, horizon/3)}
			specs := []Spec{objs[0].spec, objs[1].spec}

			// Single goroutine, snapshotting along the way.
			for k := 1; k <= 4; k++ {
				lo, hi := (k-1)*len(streams[0])/4, k*len(streams[0])/4
				for i := range objs {
					for _, ev := range streams[i][lo:hi] {
						objs[i].Record(ev.t, ev.good)
					}
				}
				want := refSnapshot(specs, [][]refEvent{streams[0][:hi], streams[1][:hi]})
				if got := e.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d horizon %v part %d:\n got %+v\nwant %+v", seed, horizon, k, got, want)
				}
			}
			if horizon > 30*time.Minute && objs[0].oldN == 0 {
				t.Fatalf("seed %d: a %v stream of %d events never folded", seed, horizon, len(streams[0]))
			}

			// The same streams from four goroutines at once.
			e2 := NewEvaluator()
			objs2 := []*Objective{e2.Register(specs[0]), e2.Register(specs[1])}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i, o := range objs2 {
						for j := g; j < len(streams[i]); j += 4 {
							o.Record(streams[i][j].t, streams[i][j].good)
						}
					}
				}(g)
			}
			wg.Wait()
			if got, want := e2.Snapshot(), refSnapshot(specs, streams); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d horizon %v, four recorders:\n got %+v\nwant %+v", seed, horizon, got, want)
			}
		}
	}
}

// TestAlertsMatchSnapshot: on the seeded streams of
// TestSnapshotMatchesEventList — folded and not, one objective alerting
// and one not, their latest events apart — Alerts reports each
// objective's name, alert state, events and errors as Snapshot does,
// in the same order, and appends them to a reused slice without
// allocating.
func TestAlertsMatchSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, horizon := range []time.Duration{10 * time.Minute, 5 * time.Hour} {
			rng := rand.New(rand.NewSource(seed))
			e := NewEvaluator()
			objs := []*Objective{
				e.Register(Spec{Name: "b", Target: 0.95}),
				e.Register(Spec{Name: "a", Target: 0.99}),
			}
			streams := [][]refEvent{randomStream(rng, 6000, horizon/3), randomStream(rng, 6000, horizon)}
			var dst []Alert
			alerting := false
			for k := 1; k <= 4; k++ {
				lo, hi := (k-1)*len(streams[0])/4, k*len(streams[0])/4
				for i := range objs {
					for _, ev := range streams[i][lo:hi] {
						objs[i].Record(ev.t, ev.good)
					}
				}
				var want []Alert
				for _, o := range e.Snapshot().Objectives {
					want = append(want, Alert{Name: o.Name, Alerting: o.Alerting, Events: o.Events, Errors: o.Errors})
					alerting = alerting || o.Alerting
				}
				if dst = e.Alerts(dst[:0]); !reflect.DeepEqual(dst, want) {
					t.Fatalf("seed %d horizon %v part %d: Alerts = %+v, Snapshot reports %+v", seed, horizon, k, dst, want)
				}
			}
			if !alerting {
				t.Fatalf("seed %d horizon %v: no objective ever alerted", seed, horizon)
			}
			if testutil.RaceEnabled {
				continue // the race detector allocates on the evaluator's behalf
			}
			if allocs := testing.AllocsPerRun(100, func() { dst = e.Alerts(dst[:0]) }); allocs != 0 {
				t.Errorf("Alerts into a slice with room allocates %v times, want 0", allocs)
			}
		}
	}
	var nilEval *Evaluator
	if got := nilEval.Alerts(nil); got != nil {
		t.Errorf("a nil evaluator's Alerts = %v, want nil", got)
	}
}

// TestObjectiveMemoryBounded: events at one instant keep one run,
// however many; events at rising times keep the runs of the longest
// window, at most twice over.
func TestObjectiveMemoryBounded(t *testing.T) {
	e := NewEvaluator()
	hits := e.Register(Spec{Name: "hits", Target: 0.99})
	for i := 0; i < 2_000_000; i++ {
		hits.Record(0, true)
	}
	if len(hits.runs) != 1 {
		t.Errorf("2M events at t=0 keep %d runs, want 1", len(hits.runs))
	}

	const n, across = 1_000_000, 10 * time.Hour
	jobs := e.Register(Spec{Name: "jobs", Target: 0.99})
	for i := 0; i < n; i++ {
		jobs.Record(time.Duration(i)*(across/n), i%3 != 0)
	}
	inSpan := int(30 * time.Minute / (across / n))
	if len(jobs.runs) > 2*inSpan || cap(jobs.runs) > 4*inSpan {
		t.Errorf("1M rising events keep %d runs (cap %d), want at most %d: two 30-minute windows' worth",
			len(jobs.runs), cap(jobs.runs), 2*inSpan)
	}
	rep, _ := e.Snapshot().Objective("jobs")
	if rep.Events != n || rep.Errors != (n+2)/3 {
		t.Errorf("folded totals = %d events / %d errors, want %d / %d", rep.Events, rep.Errors, n, (n+2)/3)
	}
}

// TestObjectiveAllocatesWhatItKeeps: events at distinct times inside one
// window are all kept, and keeping them allocates a small multiple of
// their runs — the doubling growth fold makes room in — not the sum of
// append's 1.25× copies.
func TestObjectiveAllocatesWhatItKeeps(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the objective's behalf")
	}
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := NewEvaluator().Register(Spec{Name: "window", Target: 0.99})
	for i := 0; i < n; i++ {
		o.Record(time.Duration(i)*time.Millisecond, i%5 != 0) // 100 s: inside the 5-minute window
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(o)

	kept := float64(len(o.runs)) * float64(reflect.TypeOf(event{}).Size())
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d runs: %.0f B kept, %.0f B allocated (%.2fx)", len(o.runs), kept, got, got/kept)
	if len(o.runs) != n {
		t.Fatalf("kept %d runs, want all %d", len(o.runs), n)
	}
	if got > 4*kept {
		t.Errorf("allocated %.0f B for %.0f B of runs kept: over 4x", got, kept)
	}
}

func TestRecordRepeatedAllocatesNothing(t *testing.T) {
	o := NewEvaluator().Register(Spec{Name: "r", Target: 0.99})
	o.Record(time.Minute, false)
	if allocs := testing.AllocsPerRun(1000, func() { o.Record(time.Minute, false) }); allocs != 0 {
		t.Errorf("Record on a repeated (t, good) allocates %v times, want 0", allocs)
	}
}
