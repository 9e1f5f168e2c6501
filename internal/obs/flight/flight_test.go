package flight

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"edgetune/internal/obs"
	"edgetune/internal/obs/slo"
)

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Record(0, KindSpan, "x", "", 0, 0)
	r.Trigger(TriggerManual, 0, "")
	r.ManualTrigger("")
	r.ObserveSLO(0, nil)
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder events = %v", evs)
	}
	if ds := r.Dossiers(Sources{}); ds != nil {
		t.Fatalf("nil recorder dossiers = %v", ds)
	}
	if s, rec, d := r.Stats(); s != 0 || rec != 0 || d != 0 {
		t.Fatalf("nil recorder stats = %d %d %d", s, rec, d)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Record(time.Duration(i), KindSpan, "s", "", int64(i), 0)
	}
	slots, recorded, dropped := r.Stats()
	if slots != 4 || recorded != 10 || dropped != 6 {
		t.Fatalf("stats = %d %d %d, want 4 10 6", slots, recorded, dropped)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest evicted first)", i, ev.A, want)
		}
	}
}

func TestEventsSortedIndependentOfArrival(t *testing.T) {
	a, b := New(16), New(16)
	a.Record(1, KindSpan, "x", "", 0, 0)
	a.Record(2, KindWAL, "append", "", 1, 8)
	b.Record(2, KindWAL, "append", "", 1, 8)
	b.Record(1, KindSpan, "x", "", 0, 0)
	ja, _ := json.Marshal(a.Events())
	jb, _ := json.Marshal(b.Events())
	if !bytes.Equal(ja, jb) {
		t.Fatalf("arrival order leaked into the event view:\n%s\n%s", ja, jb)
	}
}

func TestSLOEdgeDetection(t *testing.T) {
	r := New(64)
	alert := []slo.Alert{{Name: "o", Alerting: true}}
	clear := []slo.Alert{{Name: "o", Alerting: false}}

	r.ObserveSLO(10, clear) // no edge: starts clear
	r.ObserveSLO(20, alert) // rising edge
	r.ObserveSLO(30, alert) // steady: no new edge
	r.ObserveSLO(40, clear) // falling edge
	r.ObserveSLO(50, alert) // second rising edge

	tgs := r.Triggers()
	if len(tgs) != 2 {
		t.Fatalf("got %d triggers, want 2 rising edges: %+v", len(tgs), tgs)
	}
	if tgs[0].Kind != TriggerSLOAlert || tgs[0].At != 20 || tgs[1].At != 50 {
		t.Fatalf("unexpected triggers: %+v", tgs)
	}
	var clears int
	for _, ev := range r.Events() {
		if ev.Kind == KindSLO && ev.Detail == "clear" {
			clears++
		}
	}
	if clears != 1 {
		t.Fatalf("got %d clear events, want 1", clears)
	}
}

func TestDossierDeterministicAndVerifiable(t *testing.T) {
	build := func() []Dossier {
		r := New(128)
		reg := obs.NewRegistry()
		reg.Counter("x").Add(3)
		tr := obs.NewTracer()
		sp := tr.Root(obs.TrackServing, "request", 1, 5*time.Millisecond)
		sp.End(9 * time.Millisecond)
		r.Record(5*time.Millisecond, KindSpan, "request", "", int64(obs.TrackServing), int64(4*time.Millisecond))
		r.Record(6*time.Millisecond, KindAdmission, "shed-burst", "tenant-a", 0, 0)
		r.Trigger(TriggerSLOAlert, 7*time.Millisecond, "serving/latency")
		return r.Dossiers(Sources{Metrics: reg.Snapshot(), Trace: tr})
	}
	da, db := build(), build()
	ja, _ := json.Marshal(da)
	jb, _ := json.Marshal(db)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same-seed dossiers differ:\n%s\n%s", ja, jb)
	}
	if len(da) != 1 {
		t.Fatalf("got %d dossiers, want 1", len(da))
	}
	d := da[0]
	if want, got, ok := d.Verify(); !ok {
		t.Fatalf("fresh dossier fails verification: want %s got %s", want, got)
	}
	if len(d.Events) != 3 { // span + admission + the trigger marker
		t.Fatalf("window holds %d events, want 3: %+v", len(d.Events), d.Events)
	}
	if d.Analysis == nil || d.Analysis.Spans != 1 {
		t.Fatalf("window analysis missing or wrong: %+v", d.Analysis)
	}
	d.Events[0].A++ // tamper
	if _, _, ok := d.Verify(); ok {
		t.Fatal("tampered dossier still verifies")
	}
}

func TestDossierWindowFilters(t *testing.T) {
	r := New(128)
	r.Record(1*time.Minute, KindWAL, "append", "", 1, 8)
	r.Record(30*time.Minute, KindWAL, "append", "", 2, 8)
	r.Trigger(TriggerManual, 30*time.Minute, "")
	ds := r.Dossiers(Sources{})
	if len(ds) != 1 {
		t.Fatalf("got %d dossiers", len(ds))
	}
	for _, ev := range ds[0].Events {
		if ev.Time < ds[0].Window.From || ev.Time > ds[0].Window.To {
			t.Fatalf("event %+v outside window %+v", ev, ds[0].Window)
		}
	}
	if len(ds[0].Events) != 2 { // the 30m append + trigger marker; 1m append aged out
		t.Fatalf("window holds %d events, want 2: %+v", len(ds[0].Events), ds[0].Events)
	}
}

func TestWriteReadDossiers(t *testing.T) {
	dir := t.TempDir()
	r := New(32)
	r.Record(1, KindFailover, "shard0", "", 0, 0)
	r.Trigger(TriggerFailover, 1, "shard0")
	ds := r.Dossiers(Sources{})
	paths, err := WriteDossiers(dir, "shard0", ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || filepath.Base(paths[0]) != "shard0-incident-000-shard-failover.json" {
		t.Fatalf("unexpected paths %v", paths)
	}
	got, err := ReadDossier(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := got.Verify(); !ok {
		t.Fatal("round-tripped dossier fails digest verification")
	}
	if got.Trigger.Kind != TriggerFailover {
		t.Fatalf("trigger = %+v", got.Trigger)
	}
	// Byte-identical on re-write: the artefact is deterministic.
	raw, _ := os.ReadFile(paths[0])
	if _, err := WriteDossiers(dir, "shard0", ds); err != nil {
		t.Fatal(err)
	}
	raw2, _ := os.ReadFile(paths[0])
	if !bytes.Equal(raw, raw2) {
		t.Fatal("re-written dossier differs")
	}
}

func TestHandlerServesStateAndManualTrigger(t *testing.T) {
	r := New(32)
	r.Record(2, KindSpan, "x", "", 0, 0)
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/flight", nil))
	var view struct {
		Slots    int       `json:"slots"`
		Recorded uint64    `json:"recorded"`
		Triggers []Trigger `json:"triggers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.Slots != 32 || view.Recorded != 1 || len(view.Triggers) != 0 {
		t.Fatalf("view = %+v", view)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/flight?trigger=manual&detail=ops", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Triggers) != 1 || view.Triggers[0].Kind != TriggerManual || view.Triggers[0].Detail != "ops" {
		t.Fatalf("manual trigger missing: %+v", view.Triggers)
	}
	if view.Triggers[0].At != 2 {
		t.Fatalf("manual trigger stamped at %v, want the latest event time 2", view.Triggers[0].At)
	}
}

func TestRecordZeroAllocs(t *testing.T) {
	r := New(1024)
	var i int64
	allocs := testing.AllocsPerRun(512, func() {
		i++
		r.Record(time.Duration(i), KindWAL, "append", "", i, 64)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestDossiersWithoutTriggerCopyNothing: a job with no incident cuts no
// dossier, and asking costs nothing — the ring's events are copied only
// once a trigger has fired.
func TestDossiersWithoutTriggerCopyNothing(t *testing.T) {
	r := New(1024)
	for i := range 512 {
		r.Record(time.Duration(i), KindWAL, "append", "", int64(i), 64)
	}
	allocs := testing.AllocsPerRun(64, func() {
		if ds := r.Dossiers(Sources{}); ds != nil {
			t.Fatalf("dossiers without a trigger: %v", ds)
		}
	})
	if allocs != 0 {
		t.Fatalf("Dossiers without a trigger allocates %.1f allocs/op, want 0", allocs)
	}
}
