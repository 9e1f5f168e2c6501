package autoscale

import (
	"reflect"
	"testing"
	"time"
)

// testConfig bounds the pool at three replicas, so a hot drive reaches
// Max in two scale-ups.
func testConfig() Config {
	return Config{Min: 1, Max: 3}
}

func hotSignals(at time.Duration, replicas int) Signals {
	return Signals{At: at, InSystem: 8, QueueLimit: 8, Replicas: replicas, Healthy: replicas, Good: false}
}

func calmSignals(at time.Duration, replicas int) Signals {
	return Signals{At: at, InSystem: 0, QueueLimit: 8, Replicas: replicas, Healthy: replicas, Good: true}
}

func TestConfigDefaults(t *testing.T) {
	ctl, err := New(Config{})
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if want := (Config{Min: 1, Max: 4}); ctl.cfg != want {
		t.Fatalf("zero config defaulted to %+v, want %+v", ctl.cfg, want)
	}
	if got := ctl.Report().FinalReplicas; got != 1 {
		t.Fatalf("fresh controller reports %d replicas, want Min", got)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Min: -1},
		{Min: 3, Max: 2},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, c)
		}
	}
}

func TestScaleUpThenLadder(t *testing.T) {
	ctl, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	replicas := 1
	var deltas []int
	for i := 0; i < 16; i++ {
		d, ok := ctl.Evaluate(hotSignals(time.Duration(i)*time.Minute, replicas))
		if !ok {
			continue
		}
		deltas = append(deltas, d.Delta)
		replicas += d.Delta
	}
	// Ticks 1,2 scale up to Max=3; the fourteen hot ticks after them
	// find no capacity left to add and emit nothing.
	if want := []int{1, 1}; !reflect.DeepEqual(deltas, want) {
		t.Errorf("deltas = %v, want %v", deltas, want)
	}
	rep := ctl.Report()
	if rep.ScaleUps != 2 || rep.Decisions != 2 || rep.FinalReplicas != 3 {
		t.Errorf("report = %+v, want 2 scale-ups, 2 decisions, 3 replicas", rep)
	}
	if rep.WarmupTime != time.Minute || rep.WarmupEnergyJ != 300 {
		t.Errorf("warm-up charges = %v / %v J, want 1m / 300 J (30s / 150 J per replica)", rep.WarmupTime, rep.WarmupEnergyJ)
	}
}

func TestLadderReleasesAndScalesDownWithHysteresis(t *testing.T) {
	ctl, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	replicas := 1
	at := time.Duration(0)
	tick := func(s Signals) (Decision, bool) {
		at += time.Minute
		s.At = at
		return ctl.Evaluate(s)
	}
	// Drive to max replicas.
	for i := 0; i < 12; i++ {
		if d, ok := tick(hotSignals(0, replicas)); ok {
			replicas += d.Delta
		}
	}
	if replicas != 3 {
		t.Fatalf("setup: %d replicas, want 3", replicas)
	}
	// Calm ticks: the 32-tick burn window still holds the 12 bad events,
	// so the first calm ticks are merely "not hot" until all but one
	// have left it (31 ticks); then each 8-tick calm streak scales down.
	var trail []string
	for i := 0; i < 80; i++ {
		if d, ok := tick(calmSignals(0, replicas)); ok {
			replicas += d.Delta
			trail = append(trail, d.Reason)
		}
	}
	want := []string{
		"scale-down:idle",
		"scale-down:idle",
	}
	if !reflect.DeepEqual(trail, want) {
		t.Fatalf("release trail = %v, want %v", trail, want)
	}
	if replicas != 1 {
		t.Errorf("final state %d replicas, want 1", replicas)
	}
	rep := ctl.Report()
	if rep.ScaleDowns != 2 || rep.Decisions != 4 {
		t.Errorf("report = %+v, want 2 scale-downs, 4 decisions", rep)
	}
}

func TestHysteresisResetOnHotTick(t *testing.T) {
	// scaleDowns drives 2 replicas with calm ticks after one scale-up,
	// turning every hotEvery-th tick hot by admission wait: hot, yet a
	// good capacity event, so the burn window stays clean.
	scaleDowns := func(hotEvery int) int {
		ctl, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		ctl.Evaluate(hotSignals(0, 1)) // reach 2 replicas
		for i := 1; i <= 96; i++ {
			sig := calmSignals(time.Duration(i)*time.Minute, 2)
			if hotEvery > 0 && i%hotEvery == 0 {
				sig.InSystem, sig.QueuedAhead = 2, 4
			}
			ctl.Evaluate(sig)
		}
		return ctl.Report().ScaleDowns
	}
	if got := scaleDowns(0); got == 0 {
		t.Fatal("unbroken calm drive never scaled down")
	}
	// A hot tick every eighth tick: the calm streak never reaches 8.
	if got := scaleDowns(8); got != 0 {
		t.Fatalf("%d scale-downs fired despite a calm streak broken every 8 ticks", got)
	}
}

func TestCapacityLossIsHot(t *testing.T) {
	ctl, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Quiet queue but zero healthy devices: must scale up immediately.
	d, ok := ctl.Evaluate(Signals{At: time.Minute, InSystem: 0, QueueLimit: 8, Replicas: 1, Healthy: 0})
	if !ok || d.Delta != 1 || d.Reason != "scale-up:capacity-loss" {
		t.Fatalf("decision = %+v ok=%v, want capacity-loss scale-up", d, ok)
	}
}

func TestAdmissionWaitIsHot(t *testing.T) {
	ctl, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := ctl.Evaluate(Signals{At: time.Minute, InSystem: 2, QueuedAhead: 4, QueueLimit: 8, Replicas: 1, Healthy: 1, Good: true})
	if !ok || d.Reason != "scale-up:admission-wait" {
		t.Fatalf("decision = %+v ok=%v, want admission-wait scale-up", d, ok)
	}
}

func TestBoundsRespected(t *testing.T) {
	ctl, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At Max, hot ticks emit nothing.
	for i := 0; i < 30; i++ {
		if d, ok := ctl.Evaluate(hotSignals(time.Duration(i)*time.Minute, 3)); ok && d.Delta > 0 {
			t.Fatalf("scaled past Max at tick %d: %+v", i, d)
		}
	}
	// At Min, calm ticks never scale down.
	ctl2, _ := New(testConfig())
	for i := 0; i < 30; i++ {
		if d, ok := ctl2.Evaluate(calmSignals(time.Duration(i)*time.Minute, 1)); ok && d.Delta < 0 {
			t.Fatalf("scaled below Min at tick %d: %+v", i, d)
		}
	}
}

func TestSameInputsSameDigest(t *testing.T) {
	run := func() Report {
		ctl, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		replicas := 1
		for i := 0; i < 80; i++ {
			sig := calmSignals(time.Duration(i)*time.Minute, replicas)
			if i%16 < 6 {
				sig = hotSignals(sig.At, replicas)
			}
			if d, ok := ctl.Evaluate(sig); ok {
				replicas += d.Delta
			}
		}
		return ctl.Report()
	}
	rep1, rep2 := run(), run()
	if rep1.Digest != rep2.Digest {
		t.Fatalf("digests diverged: %016x != %016x", rep1.Digest, rep2.Digest)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("reports diverged:\n%+v\n%+v", rep1, rep2)
	}
	if rep1.Decisions == 0 {
		t.Fatal("mixed drive emitted no decision")
	}
}

func TestNilControllerIsSafe(t *testing.T) {
	var ctl *Controller
	if _, ok := ctl.Evaluate(hotSignals(0, 1)); ok {
		t.Fatal("nil controller emitted a decision")
	}
	if got := ctl.Report(); !reflect.DeepEqual(got, Report{}) {
		t.Fatalf("nil controller report = %+v", got)
	}
}

// BenchmarkAutoscaleDecision measures one controller tick on the hot
// path (no decision emitted most ticks).
func BenchmarkAutoscaleDecision(b *testing.B) {
	ctl, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	sig := Signals{At: time.Minute, InSystem: 3, QueueLimit: 8, Replicas: 2, Healthy: 2, Good: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.At += time.Millisecond
		ctl.Evaluate(sig)
	}
}
