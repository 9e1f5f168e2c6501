package prof

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"edgetune/internal/obs"
)

func TestDoAppliesLabels(t *testing.T) {
	var tenant, rung string
	var ok bool
	Do(context.Background(), func(ctx context.Context) {
		tenant, ok = pprof.Label(ctx, KeyTenant)
		rung, _ = pprof.Label(ctx, KeyRung)
	}, KeyTenant, "acme", KeyRung, "3")
	if !ok || tenant != "acme" || rung != "3" {
		t.Fatalf("labels not applied: tenant=%q rung=%q ok=%v", tenant, rung, ok)
	}
}

func TestDoMergesOverOuterLabels(t *testing.T) {
	Do(context.Background(), func(outer context.Context) {
		Do(outer, func(ctx context.Context) {
			if v, _ := pprof.Label(ctx, KeyShard); v != "shard1" {
				t.Errorf("outer label lost: shard=%q", v)
			}
			if v, _ := pprof.Label(ctx, KeyRung); v != "2" {
				t.Errorf("inner label missing: rung=%q", v)
			}
		}, KeyRung, "2")
	}, KeyShard, "shard1")
}

func TestDoWithoutLabelsIsDirectCall(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, 7)
	called := false
	Do(ctx, func(got context.Context) {
		called = true
		if got != ctx {
			t.Error("context replaced on the no-label path")
		}
	})
	if !called {
		t.Fatal("fn not called")
	}
}

func TestMeasureCountsAllocations(t *testing.T) {
	var sink []byte
	p := Measure("alloc-one", 100, func() {
		sink = make([]byte, 1024)
	})
	_ = sink
	if p.AllocsPerOp < 1 || p.AllocsPerOp > 3 {
		t.Errorf("AllocsPerOp = %v, want ~1", p.AllocsPerOp)
	}
	if p.BytesPerOp < 1024 {
		t.Errorf("BytesPerOp = %v, want >= 1024", p.BytesPerOp)
	}
	if p.Stage != "alloc-one" || p.Runs != 100 {
		t.Errorf("probe identity wrong: %+v", p)
	}
}

func TestMeasureZeroAllocLoop(t *testing.T) {
	var acc int
	p := Measure("no-alloc", 1000, func() { acc++ })
	_ = acc
	// The loop body allocates nothing; tolerate a stray runtime alloc.
	if p.AllocsPerOp > 0.1 {
		t.Errorf("AllocsPerOp = %v for a non-allocating op", p.AllocsPerOp)
	}
}

// TestMeasureOverlappingCallsRestoreGOMAXPROCS: a second Measure that
// starts while the first is still inside its pin must not read the
// pinned 1 as the value to restore. B is started once A is inside its
// warm-up; were the pins allowed to overlap, B would enter its own
// warm-up at once, outlive A, and put the process back on one P.
func TestMeasureOverlappingCallsRestoreGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	hold := func(entered, release chan struct{}) func() {
		var once sync.Once
		return func() {
			once.Do(func() { close(entered) })
			<-release
		}
	}
	inA, releaseA, doneA := make(chan struct{}), make(chan struct{}), make(chan struct{})
	inB, releaseB, doneB := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { defer close(doneA); Measure("a", 1, hold(inA, releaseA)) }()
	<-inA
	go func() { defer close(doneB); Measure("b", 1, hold(inB, releaseB)) }()
	select {
	case <-inB:
		t.Error("a second Measure entered its pin while the first still held it")
	case <-time.After(100 * time.Millisecond): // the only way to see B not entering
	}
	close(releaseA)
	<-doneA
	close(releaseB)
	<-doneB
	if got := runtime.GOMAXPROCS(0); got != 2 {
		t.Errorf("GOMAXPROCS = %d after two overlapping Measure calls, want the 2 they started from", got)
	}
}

func TestProbePublish(t *testing.T) {
	reg := obs.NewRegistry()
	Probe{Stage: "nn.minibatch-step", Runs: 8, AllocsPerOp: 12, BytesPerOp: 4096}.Publish(reg)
	snap := reg.Snapshot()
	var gotAllocs, gotBytes float64
	for _, g := range snap.Gauges {
		switch g.Name {
		case "prof.allocs-per-op.nn.minibatch-step":
			gotAllocs = g.Value
		case "prof.bytes-per-op.nn.minibatch-step":
			gotBytes = g.Value
		}
	}
	if gotAllocs != 12 || gotBytes != 4096 {
		t.Fatalf("published gauges = %v allocs, %v bytes; want 12, 4096", gotAllocs, gotBytes)
	}
}

// appendString encodes one Profile.string_table entry (field 6,
// length-delimited).
func appendString(b []byte, s string) []byte {
	b = append(b, 6<<3|2, byte(len(s)))
	return append(b, s...)
}

func TestProfileStringsHandCraftedMessage(t *testing.T) {
	var raw []byte
	raw = append(raw, 9<<3|0, 42)                      // varint field: skipped
	raw = appendString(raw, "")                        // string_table[0] is always ""
	raw = appendString(raw, "tenant")                  //
	raw = append(raw, 13<<3|1, 1, 2, 3, 4, 5, 6, 7, 8) // fixed64: skipped
	raw = appendString(raw, "shard0")                  //
	raw = append(raw, 2<<3|2, 3, 0xaa, 0xbb, 0xcc)     // nested sample msg: skipped
	raw = append(raw, 14<<3|5, 1, 2, 3, 4)             // fixed32: skipped

	for _, compress := range []bool{false, true} {
		data := raw
		if compress {
			data = gzipped(raw)
		}
		got, err := ProfileStrings(data)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		want := []string{"", "tenant", "shard0"}
		if len(got) != len(want) {
			t.Fatalf("compress=%v: table = %q, want %q", compress, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("compress=%v: table[%d] = %q, want %q", compress, i, got[i], want[i])
			}
		}
		if m := MissingStrings(got, []string{"tenant", "shard0"}); len(m) != 0 {
			t.Fatalf("compress=%v: unexpectedly missing %q", compress, m)
		}
		if m := MissingStrings(got, []string{"rung"}); len(m) != 1 || m[0] != "rung" {
			t.Fatalf("compress=%v: MissingStrings = %q, want [rung]", compress, m)
		}
	}
}

func TestProfileStringsTruncated(t *testing.T) {
	for _, data := range [][]byte{
		{6<<3 | 2, 10, 'a'}, // length runs past the buffer
		{9<<3 | 0},          // tag with no varint payload
		{13<<3 | 1, 1, 2},   // fixed64 cut short
	} {
		if _, err := ProfileStrings(data); err == nil {
			t.Errorf("ProfileStrings(%v) accepted a truncated message", data)
		}
	}
}

// labelledCPUProfile returns a CPU profile of a busy loop that runs for
// d under Do's labels kvs, as runtime/pprof writes it (gzipped).
func labelledCPUProfile(d time.Duration, kvs ...string) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(d)
	Do(context.Background(), func(context.Context) {
		acc := 1.0
		for time.Now().Before(deadline) {
			for i := 0; i < 1000; i++ {
				acc = acc*1.0000001 + float64(i)
			}
		}
		_ = acc
	}, kvs...)
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// TestCPUProfileCarriesLabels is the end-to-end check behind the CI
// gate: CPU samples taken while Do's labels are active must land the
// label keys and values in the profile's string table.
func TestCPUProfileCarriesLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling burn loop")
	}
	profile, err := labelledCPUProfile(500*time.Millisecond, KeyTenant, "prof-test-tenant", KeyRung, "7")
	if err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}

	table, err := ProfileStrings(profile)
	if err != nil {
		t.Fatal(err)
	}
	if m := MissingStrings(table, []string{KeyTenant, "prof-test-tenant", KeyRung}); len(m) != 0 {
		t.Fatalf("captured profile missing label strings %q (table has %d strings)", m, len(table))
	}
	// And sample by sample: everything the burn loop's samples say about
	// the rung is "7".
	counts, err := LabelValues(profile, "TestCPUProfileCarriesLabels", KeyRung)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts["7"] < 10 {
		t.Errorf("burn-loop samples by rung label: %v, want a few dozen, all \"7\"", counts)
	}
	if other, err := LabelValues(profile, "no such function", KeyRung); err != nil || len(other) != 0 {
		t.Errorf("samples through a function nobody ran: %v, %v", other, err)
	}
}
