package counters

import (
	"reflect"
	"sync"
	"testing"

	"edgetune/internal/obs"
)

func TestResilienceNilSafe(t *testing.T) {
	var r *Resilience
	r.RecordFault("trial-crash")
	r.AddRetry()
	r.AddShed()
	r.AddQuarantine()
	r.AddProbe()
	r.AddDrained()
	r.AddResumedRungs(2)
	if s := r.Snapshot(); !reflect.DeepEqual(s, ResilienceSnapshot{}) {
		t.Errorf("nil snapshot = %+v", s)
	}
	r.Restore(ResilienceSnapshot{Shed: 1}) // must not panic
}

func TestResilienceServingCounters(t *testing.T) {
	r := NewResilienceOn(nil)
	for i := 0; i < 3; i++ {
		r.AddShed()
	}
	r.AddQuarantine()
	r.AddProbe()
	r.AddProbe()
	r.AddDrained()
	s := r.Snapshot()
	want := ResilienceSnapshot{
		Shed: 3, Quarantines: 1, Probes: 2, Drained: 1,
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("snapshot = %+v, want %+v", s, want)
	}
}

func TestResilienceRestoreRoundTrip(t *testing.T) {
	r := NewResilienceOn(nil)
	r.RecordFault("overload-burst")
	r.AddShed()
	r.AddProbe()
	r.AddQuarantine()
	r.AddDrained()
	snap := r.Snapshot()

	fresh := NewResilienceOn(nil)
	fresh.Restore(snap)
	if got := fresh.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Errorf("restored snapshot = %+v, want %+v", got, snap)
	}
	// Counters keep accumulating on top of a restore.
	fresh.AddShed()
	if got := fresh.Snapshot().Shed; got != snap.Shed+1 {
		t.Errorf("shed after restore+add = %d, want %d", got, snap.Shed+1)
	}
}

func TestResilienceConcurrentServingCounters(t *testing.T) {
	r := NewResilienceOn(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.AddShed()
				r.AddProbe()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Shed != 800 || s.Probes != 800 {
		t.Errorf("shed/probes = %d/%d, want 800/800", s.Shed, s.Probes)
	}
}

func TestResilienceBackedByRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewResilienceOn(reg)
	if r.Registry() != reg {
		t.Fatal("Registry() must expose the backing registry")
	}
	r.AddShed()
	r.AddRetry()
	r.AddRetry()
	r.RecordFault("trial-crash")
	snap := reg.Snapshot()
	if got := snap.Counter("serving.shed"); got != 1 {
		t.Errorf("registry serving.shed = %d, want 1", got)
	}
	if got := snap.Counter("resilience.retries"); got != 2 {
		t.Errorf("registry resilience.retries = %d, want 2", got)
	}
	if got := snap.Counter("fault.trial-crash"); got != 1 {
		t.Errorf("registry fault.trial-crash = %d, want 1", got)
	}
	// The typed snapshot reads the same cells.
	s := r.Snapshot()
	if s.Shed != 1 || s.Retries != 2 || s.FaultCount("trial-crash") != 1 {
		t.Errorf("typed snapshot disagrees with registry: %+v", s)
	}
	// Restore replaces fault classes rather than merging them.
	r.Restore(ResilienceSnapshot{Faults: []FaultCount{{Class: "straggler", Count: 3}}})
	s = r.Snapshot()
	if s.FaultCount("trial-crash") != 0 || s.FaultCount("straggler") != 3 || s.TotalFaults != 3 {
		t.Errorf("restore did not replace fault state: %+v", s)
	}
	if r.Registry() == nil {
		t.Fatal("backing registry lost after restore")
	}
	var nilRec *Resilience
	if nilRec.Registry() != nil {
		t.Fatal("nil recorder must have nil registry")
	}
}

// TestResilienceFifteenthRow is the point of the table: one declaration
// — no struct field, registration line, snapshot line or restore line —
// and a counter is registered, snapshotted and restored. (It is named
// for the table of fourteen rows it was written against; ten are
// left, so the new row is the eleventh.)
func TestResilienceFifteenthRow(t *testing.T) {
	var field int64 // stands in for a new ResilienceSnapshot field
	extra := declare("resilience.fifteenth", func(*ResilienceSnapshot) *int64 { return &field })
	defer func() { rows = rows[:extra] }()
	if extra != 10 {
		t.Fatalf("the new row has index %d, want 10", extra)
	}

	reg := obs.NewRegistry()
	r := NewResilienceOn(reg)
	r.add(extra, 3)
	r.AddRetry()
	if got := reg.Counter("resilience.fifteenth").Value(); got != 3 {
		t.Errorf("registered cell = %d, want 3", got)
	}
	snap := r.Snapshot()
	if field != 3 || snap.Retries != 1 {
		t.Errorf("snapshot: fifteenth = %d, retries = %d, want 3 and 1", field, snap.Retries)
	}

	field = 7
	fresh := NewResilienceOn(obs.NewRegistry())
	fresh.Restore(snap)
	if got := fresh.Registry().Counter("resilience.fifteenth").Value(); got != 7 {
		t.Errorf("restored cell = %d, want 7", got)
	}
	if got := fresh.Snapshot().Retries; got != 1 {
		t.Errorf("restored retries = %d, want 1", got)
	}
}
