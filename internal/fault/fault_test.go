package fault

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"edgetune/internal/counters"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if err := (Config{TrialCrash: 1.5}).Validate(); err == nil {
		t.Error("probability > 1 accepted")
	}
	if err := (Config{DeviceFlap: -0.1}).Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	if err := (Config{StragglerFactor: 0.5}).Validate(); err == nil {
		t.Error("straggler factor < 1 accepted")
	}
	if err := (Config{BrownoutFactor: 0.5}).Validate(); err == nil {
		t.Error("brownout factor < 1 accepted")
	}
	if err := (Config{OverloadBurst: 2}).Validate(); err == nil {
		t.Error("overload-burst probability > 1 accepted")
	}
	if !(Config{DeviceBrownout: 0.1}).Enabled() {
		t.Error("brownout-only config reports disabled")
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(Config{StoreWrite: 0.1}).Enabled() {
		t.Error("non-zero config reports disabled")
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	// A config that can fire nothing and has no observer is the nil
	// injector; the factors alone do not arm it.
	in, err := NewInjector(Config{StragglerFactor: 3, BrownoutFactor: 8}, 1, nil)
	if err != nil || in != nil {
		t.Fatalf("inert config: injector %v, err %v; want nil, nil", in, err)
	}
	// An empty plan schedules nothing: it gets the nil injector too.
	if in, err := NewInjector(Config{Plan: &Plan{}}, 1, nil); err != nil || in != nil {
		t.Fatalf("empty plan: injector %v, err %v; want nil, nil", in, err)
	}
	one, err := NewPlan([]Event{{Class: DiskFull, Site: "store.json.wal", Attempt: 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, armed := range []Config{
		{Plan: one},
		{Observe: func(Class, string, int, bool) {}},
		{DiskFull: 0.1},
	} {
		if in, _ := NewInjector(armed, 1, nil); in == nil {
			t.Errorf("NewInjector(%+v) returned the nil injector", armed)
		}
	}
	if in.Uniform("site", 0) != 0.5 {
		t.Error("nil injector is not inert")
	}
	for _, class := range Classes() {
		if in.Should(class, "site", 0) {
			t.Errorf("nil injector fired %s", class)
		}
		if err := in.Fail(class, "site", 0); err != nil {
			t.Errorf("nil injector failed %s: %v", class, err)
		}
	}
	if f := in.StragglerFactor("site", 0); f != 1 {
		t.Errorf("nil straggler factor = %v", f)
	}
	if f := in.BrownoutFactor("site", 0); f != 1 {
		t.Errorf("nil brownout factor = %v", f)
	}
}

func TestDecisionsDeterministicAndOrderIndependent(t *testing.T) {
	cfg := Config{TrialCrash: 0.3, DeviceFlap: 0.3, DroppedReply: 0.3}
	mk := func() *Injector {
		in, err := NewInjector(cfg, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	// Query b in reverse order: per-tuple decisions must not depend on
	// call order (they are stateless hashes, not a shared stream).
	type q struct {
		class   Class
		site    string
		attempt int
	}
	var qs []q
	for i := 0; i < 50; i++ {
		qs = append(qs, q{TrialCrash, fmt.Sprintf("cfg-%d", i), i % 3})
		qs = append(qs, q{DeviceFlap, fmt.Sprintf("sig-%d", i), i % 2})
	}
	want := make([]bool, len(qs))
	for i, x := range qs {
		want[i] = a.Should(x.class, x.site, x.attempt)
	}
	for i := len(qs) - 1; i >= 0; i-- {
		if got := b.Should(qs[i].class, qs[i].site, qs[i].attempt); got != want[i] {
			t.Fatalf("decision %d changed with call order", i)
		}
	}
}

func TestDifferentAttemptsDifferentDecisions(t *testing.T) {
	in, err := NewInjector(Config{TrialCrash: 0.5}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With p=0.5 across 64 attempts, both outcomes must occur: a retry
	// re-rolls rather than deterministically re-failing forever.
	var fired, clean bool
	for attempt := 0; attempt < 64; attempt++ {
		if in.Should(TrialCrash, "cfg", attempt) {
			fired = true
		} else {
			clean = true
		}
	}
	if !fired || !clean {
		t.Errorf("attempt dimension not mixed: fired=%v clean=%v", fired, clean)
	}
}

func TestEmpiricalRate(t *testing.T) {
	in, err := NewInjector(Config{StoreWrite: 0.2}, 123, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, hits := 5000, 0
	for i := 0; i < n; i++ {
		if in.Should(StoreWrite, fmt.Sprintf("s-%d", i), 0) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.2) > 0.03 {
		t.Errorf("empirical rate %v far from configured 0.2", rate)
	}
}

func TestRecording(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	in, err := NewInjector(Config{TrialNaN: 1}, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !in.Should(TrialNaN, "cfg", i) {
			t.Fatal("p=1 fault did not fire")
		}
	}
	s := rec.Snapshot()
	if s.FaultCount(string(TrialNaN)) != 3 || s.TotalFaults != 3 {
		t.Errorf("snapshot = %+v, want 3 trial-nan faults", s)
	}
}

func TestErrorClassification(t *testing.T) {
	in, err := NewInjector(Config{DeviceFlap: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ferr := in.Fail(DeviceFlap, "sig", 0)
	if ferr == nil {
		t.Fatal("p=1 Fail returned nil")
	}
	if !IsFault(ferr) {
		t.Error("IsFault missed an injected error")
	}
	wrapped := fmt.Errorf("request: %w", ferr)
	if !IsFault(wrapped) || ClassOf(wrapped) != DeviceFlap {
		t.Error("wrapped fault not recognised")
	}
	if IsFault(errors.New("organic")) || ClassOf(errors.New("organic")) != "" {
		t.Error("organic error classified as fault")
	}
	// The tree errors.As walks: joins depth first, and an error that
	// answers As itself.
	joined := errors.Join(errors.New("organic"), fmt.Errorf("retry: %w", errors.Join(ferr)))
	if ClassOf(joined) != DeviceFlap || IsFault(errors.Join(errors.New("a"), errors.New("b"))) || IsFault(nil) {
		t.Error("a fault inside a join is not found, or one is found where there is none")
	}
	if ClassOf(asError{&Error{Class: TrialCrash}}) != TrialCrash || IsFault(asError{}) {
		t.Error("an error's own As is not consulted")
	}
	if n := testing.AllocsPerRun(100, func() { _ = ClassOf(wrapped) }); n != 0 {
		t.Errorf("ClassOf of a wrapped fault allocates %.0f times", n)
	}
}

// asError answers errors.As for *Error with fe, when fe is set.
type asError struct{ fe *Error }

func (e asError) Error() string { return "as" }

func (e asError) As(target any) bool {
	if p, ok := target.(**Error); ok && e.fe != nil {
		*p = e.fe
		return true
	}
	return false
}

func TestStragglerFactorRange(t *testing.T) {
	in, err := NewInjector(Config{Straggler: 1, StragglerFactor: 3}, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f := in.StragglerFactor(fmt.Sprintf("s-%d", i), 0)
		if f < 1 || f > 3 {
			t.Fatalf("factor %v out of [1,3]", f)
		}
	}
	// Deterministic per tuple.
	if in.StragglerFactor("s-1", 0) != in.StragglerFactor("s-1", 0) {
		t.Error("straggler factor not deterministic")
	}
}

func TestBrownoutFactorRange(t *testing.T) {
	in, err := NewInjector(Config{DeviceBrownout: 1, BrownoutFactor: 5}, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		f := in.BrownoutFactor(fmt.Sprintf("d-%d", i), 0)
		if f < 1 || f > 5 {
			t.Fatalf("factor %v out of [1,5]", f)
		}
	}
	if in.BrownoutFactor("d-1", 0) != in.BrownoutFactor("d-1", 0) {
		t.Error("brownout factor not deterministic")
	}
	// Defaulted factor still yields > 1 slowdowns somewhere.
	in2, err := NewInjector(Config{DeviceBrownout: 1}, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	var slowed bool
	for i := 0; i < 20; i++ {
		if in2.BrownoutFactor(fmt.Sprintf("d-%d", i), 0) > 1 {
			slowed = true
		}
	}
	if !slowed {
		t.Error("default brownout factor never slowed an attempt")
	}
}

func TestNewClassesFire(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	in, err := NewInjector(Config{OverloadBurst: 1, DeviceBrownout: 1}, 5, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Should(OverloadBurst, "admit/c1", 0) {
		t.Error("p=1 overload burst did not fire")
	}
	if ferr := in.Fail(DeviceBrownout, "i7/sig", 0); ClassOf(ferr) != DeviceBrownout {
		t.Errorf("brownout Fail = %v", ferr)
	}
	s := rec.Snapshot()
	if s.FaultCount(string(OverloadBurst)) != 1 || s.FaultCount(string(DeviceBrownout)) != 1 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	rec := counters.NewResilienceOn(nil)
	in, err := NewInjector(Config{TrialCrash: 0.5}, 3, rec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Should(TrialCrash, fmt.Sprintf("%d-%d", g, i), i%4)
			}
		}(g)
	}
	wg.Wait()
	if rec.Snapshot().TotalFaults == 0 {
		t.Error("no faults recorded under concurrency")
	}
}
