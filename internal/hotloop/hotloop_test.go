package hotloop

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"edgetune/internal/obs/prof"
	"edgetune/internal/testutil"
)

// TestStageNames: the table is exactly the fourteen loops, each named
// once, and a -profile job's five are among them in table order.
func TestStageNames(t *testing.T) {
	var all []string
	for _, s := range stages {
		all = append(all, s.name)
	}
	sorted := append([]string(nil), all...)
	sort.Strings(sorted)
	if want := []string{
		"autoscale.evaluate", "cluster.dispatch", "flight.record",
		"nn.minibatch-step", "perfmodel.infer-cost", "search.tpe-search",
		"serve.cache-hit", "store.checkpoint", "store.put", "store.wal-append", "trace.emit",
		"trace.leaf", "trial.run", "workload.new",
	}; !reflect.DeepEqual(sorted, want) {
		t.Errorf("table declares %v, want exactly %v", sorted, want)
	}

	job, next := JobStages(), 0
	for _, name := range all {
		if next < len(job) && job[next] == name {
			next++
		}
	}
	if len(job) != 5 || next != len(job) {
		t.Errorf("-profile stages %v: want five of %v, in that order", job, all)
	}
}

// TestEveryLoopRuns: each loop opens on its own state, runs more than
// once, and releases everything it started.
func TestEveryLoopRuns(t *testing.T) {
	testutil.CheckGoroutineLeak(t, 0)
	for _, s := range stages {
		op, done, err := Open(s.name)
		if err != nil {
			t.Fatal(err)
		}
		op()
		op()
		done()
	}
}

// TestMeasure: probes come back in the order asked for, under their
// stage names, and an unknown stage fails the call instead of leaving a
// gap in the result.
func TestMeasure(t *testing.T) {
	names := []string{"store.put", "perfmodel.infer-cost", "flight.record"}
	probes, err := Measure(4, names...)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range probes {
		got = append(got, p.Stage)
		if p.Runs != 4 || p.AllocsPerOp < 0 || p.BytesPerOp < 0 {
			t.Errorf("probe %+v: want 4 runs and non-negative averages", p)
		}
	}
	if !reflect.DeepEqual(got, names) {
		t.Errorf("probed %v, asked for %v", got, names)
	}
	if probes[2].AllocsPerOp != 0 {
		t.Errorf("flight.record allocates %.2f/op on the overwrite path, want 0", probes[2].AllocsPerOp)
	}

	probes, err = Measure(4, "store.put", "store.putt")
	if err == nil || !strings.Contains(err.Error(), `"store.putt"`) {
		t.Errorf("Measure of an unknown stage = %v, %v; want an error naming it", probes, err)
	}
}

// The ledger warms each loop up for ledgerWarmUpRuns runs before it
// measures, ending early once ledgerWarmUpTime has passed.
//
// prof.Measure's one warm-up run settles lazy initialisation, but not
// this: since Go 1.22 the runtime caches, per call site, the outcome of
// each type assertion and type switch to an interface type. Until a
// site's cache holds the type it meets, each execution that misses it
// builds a new cache with probability 1/1024 (runtime.typeAssert and
// interfaceSwitch → buildTypeAssertCache), a 40 B allocation in the 48 B
// size class. It is paid once per site and type, about a thousand
// executions in: a start-up cost, not a per-op one. encoding/json's
// marshaler check (addrMarshalerEncoder) is such a site and runs once
// per WAL record, so 32 checkpoints measured after one warm-up run
// caught the build about one time in thirty, and a zero row read
// 1.5 B/op. Thousands of runs pay it before the window; the time bound
// keeps a loop whose run is a whole training trial from taking minutes
// over it. The warm-up is the ledger's, not prof.Measure's: a -profile
// job measures its stages through prof.Measure before it trains, and a
// second of warm-up would be a second of unlabelled training steps.
const (
	ledgerWarmUpRuns = 8192
	ledgerWarmUpTime = time.Second
)

// TestStageAllocations holds every stage to the allocs/op and bytes/op
// its row declares. A reading above the declaration is a regression; one
// below it means the declaration is stale and is lowered with the change
// that earned it. Either way the test fails, so the table stays the
// measurement: allocs/op must round to the declared count and bytes/op
// lie within 1 % of the declared value (a zero row allocates nothing).
func TestStageAllocations(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the loops' behalf")
	}
	for _, s := range stages {
		op, done, err := Open(s.name)
		if err != nil {
			t.Fatal(err)
		}
		for i, start := 0, time.Now(); i < ledgerWarmUpRuns && time.Since(start) < ledgerWarmUpTime; i++ {
			op()
		}
		p := prof.Measure(s.name, 32, op)
		done()
		t.Logf("%-22s %6.2f allocs/op %9.1f B/op", s.name, p.AllocsPerOp, p.BytesPerOp)
		if got := math.Round(p.AllocsPerOp); got != float64(s.allocs) {
			t.Errorf("%s: %.2f allocs/op, declared %d", s.name, p.AllocsPerOp, s.allocs)
		}
		if math.Abs(p.BytesPerOp-s.bytes) > 0.01*s.bytes {
			t.Errorf("%s: %.1f B/op, declared %.1f (±1 %%)", s.name, p.BytesPerOp, s.bytes)
		}
	}
}

// TestWALAppendRowHoldsWhereverTheWindowFalls moves the ledger's window
// across the first four thousand appends of one store.wal-append loop —
// where a time-bounded warm-up on a slow machine leaves it — and holds
// every window to the row, as TestStageAllocations does: neither the
// store's index growing nor a collection may land in a window.
func TestWALAppendRowHoldsWhereverTheWindowFalls(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector allocates on the loops' behalf")
	}
	var row stage
	for _, s := range stages {
		if s.name == "store.wal-append" {
			row = s
		}
	}
	op, done, err := Open(row.name)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	for ran := 0; ran < 4000; {
		p := prof.Measure(row.name, 32, op)
		if math.Round(p.AllocsPerOp) != float64(row.allocs) || math.Abs(p.BytesPerOp-row.bytes) > 0.01*row.bytes {
			t.Errorf("window after %d appends: %.2f allocs/op, %.1f B/op; declared %d, %.1f",
				ran, p.AllocsPerOp, p.BytesPerOp, row.allocs, row.bytes)
		}
		for i := 0; i < 40; i++ {
			op()
		}
		ran += 33 + 40
	}
}
