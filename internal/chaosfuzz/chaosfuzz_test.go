package chaosfuzz

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edgetune/internal/fault"
)

func TestScheduleValidate(t *testing.T) {
	ok := fault.Event{Class: fault.TrialCrash, Site: "conf0/b0/r0", Intensity: 1}
	cases := []struct {
		name    string
		s       Schedule
		wantErr string
	}{
		{"valid single", Schedule{Mode: ModeSingle, Events: []fault.Event{ok}}, ""},
		{"valid empty", Schedule{Mode: ModeCluster}, ""},
		{"bad mode", Schedule{Mode: "edge"}, "mode"},
		{"bad intensity", Schedule{Mode: ModeSingle, Events: []fault.Event{
			{Class: fault.TrialCrash, Site: "s", Intensity: 1.5}}}, "outside [0,1]"},
		{"NaN intensity", Schedule{Mode: ModeSingle, Events: []fault.Event{
			{Class: fault.TrialCrash, Site: "s", Intensity: math.NaN()}}}, "outside [0,1]"},
		{"negative attempt", Schedule{Mode: ModeSingle, Events: []fault.Event{
			{Class: fault.TrialCrash, Site: "s", Attempt: -1, Intensity: 1}}}, "negative"},
		{"unknown class", Schedule{Mode: ModeSingle, Events: []fault.Event{
			{Class: fault.Class("gamma-ray"), Site: "s", Intensity: 1}}}, "unknown class"},
		{"cluster class in single mode", Schedule{Mode: ModeSingle, Events: []fault.Event{
			{Class: fault.ShardKill, Site: "shard0/k/b0/r0", Intensity: 1}}}, "single mode"},
		{"disk class in cluster mode", Schedule{Mode: ModeCluster, Events: []fault.Event{
			{Class: fault.DiskTornWrite, Site: "store.json.wal", Intensity: 1}}}, "cluster mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestReproRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.json")
	in := Repro{
		Invariant: "budget-conservation",
		Detail:    "reported duration off by one retry",
		Schedule: Schedule{
			Seed: 7, Mode: ModeSingle,
			Events: []fault.Event{{Class: fault.TrialCrash, Site: "conf1/b0/r0", Attempt: 0, Intensity: 1}},
		},
	}
	if err := WriteRepro(path, in); err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	out, err := ReadRepro(path)
	if err != nil {
		t.Fatalf("ReadRepro: %v", err)
	}
	in.Schema = ReproSchema
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestReadReproRejectsBadSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repro.json")
	bad := Repro{Schedule: Schedule{Seed: 1, Mode: "edge"}}
	if err := WriteRepro(path, bad); err != nil {
		t.Fatalf("WriteRepro: %v", err)
	}
	if _, err := ReadRepro(path); err == nil {
		t.Fatal("ReadRepro accepted an invalid schedule")
	}
}

// TestReadReproSchema1: a schema-1 artefact still loads when it has no
// disk event, and is refused with an error when it has one — its disk
// sites name the Nth filesystem operation, which no decision is keyed
// by any more, so replaying it would silently fire nothing.
func TestReadReproSchema1(t *testing.T) {
	for _, tc := range []struct {
		ev      fault.Event
		wantErr bool
	}{
		{fault.Event{Class: fault.TrialCrash, Site: "conf1/b0/r0"}, false},
		{fault.Event{Class: fault.DiskCrash, Site: "fsync/store.json.wal", Attempt: 16}, true},
	} {
		path := filepath.Join(t.TempDir(), "repro.json")
		old := Repro{Schema: 1, Schedule: Schedule{Seed: 11, Mode: ModeSingle, Events: []fault.Event{tc.ev}}}
		if err := WriteRepro(path, old); err != nil {
			t.Fatal(err)
		}
		_, err := ReadRepro(path)
		if gotErr := err != nil; gotErr != tc.wantErr {
			t.Errorf("schema-1 repro with %s: ReadRepro error %v, want error %v", tc.ev, err, tc.wantErr)
		}
		if tc.wantErr && err != nil && !strings.Contains(err.Error(), "schema 1") {
			t.Errorf("schema-1 refusal does not name the schema: %v", err)
		}
	}
}

// TestShrinkMinimizes drives ddmin with a synthetic predicate: the
// failure needs events #3 and #6 together; everything else is noise.
// The shrinker must strip all six noise events and keep exactly the
// failing pair.
func TestShrinkMinimizes(t *testing.T) {
	events := make([]fault.Event, 8)
	for i := range events {
		events[i] = fault.Event{
			Class: fault.TrialCrash, Site: "conf0/b0/r0", Attempt: i, Intensity: 1,
		}
	}
	needs := func(s Schedule, attempt int) bool {
		for _, ev := range s.Events {
			if ev.Attempt == attempt {
				return true
			}
		}
		return false
	}
	calls := 0
	min := Shrink(Schedule{Seed: 9, Mode: ModeSingle, Events: events}, func(s Schedule) bool {
		calls++
		return needs(s, 3) && needs(s, 6)
	})
	if len(min.Events) != 2 || !needs(min, 3) || !needs(min, 6) {
		t.Fatalf("shrunk to %v, want exactly attempts {3, 6}", min.Events)
	}
	if min.Seed != 9 || min.Mode != ModeSingle {
		t.Fatalf("shrinker lost seed/mode: %+v", min)
	}
	if calls == 0 {
		t.Fatal("predicate never consulted")
	}
}

func TestShrinkSingleEvent(t *testing.T) {
	s := Schedule{Seed: 1, Mode: ModeSingle, Events: []fault.Event{
		{Class: fault.TrialNaN, Site: "x", Intensity: 1},
	}}
	min := Shrink(s, func(Schedule) bool { return true })
	if len(min.Events) != 1 {
		t.Fatalf("single-event schedule must survive intact, got %v", min.Events)
	}
}

func TestDiscoverCatalogDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tuning jobs")
	}
	r := &Runner{Mode: ModeSingle, Seed: 42}
	c1, err := Discover(r)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	c2, err := Discover(r)
	if err != nil {
		t.Fatalf("Discover (second): %v", err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("catalog not deterministic across discoveries")
	}
	if len(c1) == 0 {
		t.Fatal("empty catalog")
	}
	var sawRetrySynthesis bool
	for _, p := range c1 {
		if retryClasses[p.Class] && p.Attempt > 0 {
			sawRetrySynthesis = true
		}
	}
	if !sawRetrySynthesis {
		t.Fatal("catalog missing synthesized retry attempts")
	}
}

func TestRunDeterministicDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tuning jobs")
	}
	r := &Runner{Mode: ModeSingle, Seed: 1234}
	s := Schedule{Seed: 1234, Mode: ModeSingle, Events: []fault.Event{
		{Class: fault.TrialCrash, Site: "conf0/b0/r0", Attempt: 0, Intensity: 1},
	}}
	a, err := r.run(s, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := r.run(s, nil)
	if err != nil {
		t.Fatalf("Run (second): %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same schedule diverged: %s != %s", a.Digest, b.Digest)
	}
	if a.Digest == "" {
		t.Fatal("empty digest")
	}
}

// TestCleanScheduleHoldsAllInvariants is the no-false-positive
// baseline: an unfaulted run must violate nothing.
func TestCleanScheduleHoldsAllInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tuning jobs")
	}
	for _, mode := range []string{ModeSingle, ModeCluster} {
		t.Run(mode, func(t *testing.T) {
			r := &Runner{Mode: mode, Seed: 99}
			f, err := New(r)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			violations, _, err := f.Evaluate(Schedule{Seed: 99, Mode: mode})
			if err != nil {
				t.Fatalf("Evaluate: %v", err)
			}
			if len(violations) != 0 {
				t.Fatalf("clean %s run violated invariants: %+v", mode, violations)
			}
		})
	}
}

// TestPlantedDoubleChargeFoundAndShrunk is the acceptance scenario: a
// deliberately planted accounting bug (retry budget charged twice)
// must be found by seeded exploration, shrunk to a minimal schedule of
// at most 3 events, and its repro must replay to the same invariant
// failure on a fresh runner.
func TestPlantedDoubleChargeFoundAndShrunk(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tuning jobs")
	}
	r := &Runner{Mode: ModeSingle, Seed: 7, PlantDoubleChargeRetry: true}
	f, err := New(r)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	findings, err := f.Explore(6)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	var finding *Finding
	for i := range findings {
		if hasInvariant(findings[i].Violations, "budget-conservation") {
			finding = &findings[i]
			break
		}
	}
	if finding == nil {
		t.Fatalf("exploration missed the planted double charge; findings: %+v", findings)
	}
	if n := len(finding.Schedule.Events); n == 0 || n > 3 {
		t.Fatalf("shrunk schedule has %d events, want 1..3: %+v", n, finding.Schedule.Events)
	}
	if finding.Repro.Invariant != "budget-conservation" {
		t.Fatalf("repro pinned to %q, want budget-conservation", finding.Repro.Invariant)
	}
	if _, _, ok := finding.Dossier.Verify(); !ok {
		t.Fatal("finding dossier failed digest verification")
	}
	if finding.Dossier.Trigger.Kind != TriggerInvariant {
		t.Fatalf("dossier trigger %q, want %q", finding.Dossier.Trigger.Kind, TriggerInvariant)
	}

	// The repro must replay to the same failure on a fresh runner.
	fresh := &Runner{Mode: ModeSingle, Seed: 7, PlantDoubleChargeRetry: true}
	ff, err := New(fresh)
	if err != nil {
		t.Fatalf("New (fresh): %v", err)
	}
	violations, _, err := ff.Evaluate(finding.Repro.Schedule)
	if err != nil {
		t.Fatalf("Evaluate (replay): %v", err)
	}
	if !hasInvariant(violations, "budget-conservation") {
		t.Fatalf("repro did not replay the planted failure; got %+v", violations)
	}

	// And replay on an unplanted runner must be clean: the violation is
	// the bug's, not the schedule's.
	sound := &Runner{Mode: ModeSingle, Seed: 7}
	fs, err := New(sound)
	if err != nil {
		t.Fatalf("New (sound): %v", err)
	}
	violations, _, err = fs.Evaluate(finding.Repro.Schedule)
	if err != nil {
		t.Fatalf("Evaluate (sound replay): %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("schedule violates invariants even without the planted bug: %+v", violations)
	}
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	f := &Fuzzer{
		Runner: &Runner{Mode: ModeSingle, Seed: 5},
		Catalog: []Point{
			{Class: fault.TrialCrash, Site: "conf0/b0/r0"},
			{Class: fault.TrialNaN, Site: "conf1/b0/r0"},
			{Class: fault.Straggler, Site: "conf2/b0/r0", Attempt: 1},
		},
		MaxEvents: 3,
	}
	for i := 0; i < 20; i++ {
		a, b := f.Generate(i), f.Generate(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Generate(%d) not deterministic", i)
		}
		if len(a.Events) < 1 || len(a.Events) > 3 {
			t.Fatalf("Generate(%d) produced %d events, want 1..3", i, len(a.Events))
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Generate(%d) invalid: %v", i, err)
		}
		for _, ev := range a.Events {
			if ev.Intensity != 1 {
				t.Fatalf("Generate(%d) intensity %v, want 1", i, ev.Intensity)
			}
		}
	}
}
