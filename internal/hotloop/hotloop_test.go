package hotloop

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"edgetune/internal/testutil"
)

// TestStageNames: the table is exactly the thirteen loops, each named
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
		"trace.leaf", "trial.run",
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
		probes, err := Measure(32, s.name)
		if err != nil {
			t.Fatal(err)
		}
		p := probes[0]
		t.Logf("%-22s %6.2f allocs/op %9.1f B/op", s.name, p.AllocsPerOp, p.BytesPerOp)
		if got := math.Round(p.AllocsPerOp); got != float64(s.allocs) {
			t.Errorf("%s: %.2f allocs/op, declared %d", s.name, p.AllocsPerOp, s.allocs)
		}
		if math.Abs(p.BytesPerOp-s.bytes) > 0.01*s.bytes {
			t.Errorf("%s: %.1f B/op, declared %.1f (±1 %%)", s.name, p.BytesPerOp, s.bytes)
		}
	}
}
