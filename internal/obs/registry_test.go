package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRegistryBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if reg.Counter("a.count") != c {
		t.Fatal("same name must return same counter")
	}
	g := reg.Gauge("a.gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
	h := reg.Histogram("a.hist", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 2, 3, 50, 200} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if reg.Histogram("a.hist", nil) != h {
		t.Fatal("same name must return same histogram")
	}
}

func TestNilRegistryNoOp(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x", []float64{1}).Observe(1)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter = %d", v)
	}
	if v := reg.Gauge("x").Value(); v != 0 {
		t.Fatalf("nil gauge = %g", v)
	}
	if v := reg.Histogram("x", nil).Quantile(0.5); v != 0 {
		t.Fatalf("nil histogram quantile = %g", v)
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if names := reg.CounterNames(""); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}
}

// TestCounterNamesByPrefix: CounterNames lists the counters whose names
// start with the prefix, sorted, and nothing when none does.
func TestCounterNamesByPrefix(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"fault.b", "tune.trials", "fault.a", "faults", "x.fault.c"} {
		reg.Counter(name)
	}
	if got, want := reg.CounterNames("fault."), []string{"fault.a", "fault.b"}; !reflect.DeepEqual(got, want) {
		t.Errorf(`CounterNames("fault.") = %v, want %v`, got, want)
	}
	if got := reg.CounterNames("serving."); got != nil {
		t.Errorf(`CounterNames("serving.") = %v, want nil`, got)
	}
	if got := reg.CounterNames(""); len(got) != 5 || !sort.StringsAreSorted(got) {
		t.Errorf(`CounterNames("") = %v, want all five, sorted`, got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 1.5},
		{0.95, 95, 1.5},
		{0.99, 99, 1.5},
		{0, 1, 0.01},
		{1, 100, 0.01},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestHistogramNonFiniteObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 10})
	h.Observe(5)
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(math.NaN())
	snap := reg.Snapshot()
	st, ok := snap.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if st.Count != 4 {
		t.Fatalf("count = %d, want 4", st.Count)
	}
	if st.Sum != 5 || st.Min != 5 || st.Max != 5 {
		t.Fatalf("finite stats = sum %g min %g max %g, want all 5", st.Sum, st.Min, st.Max)
	}
	// The whole snapshot must survive JSON (no bare Inf/NaN values).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-serialisable: %v", err)
	}
}

func TestSnapshotDeterministicOrderAndJSON(t *testing.T) {
	build := func() Snapshot {
		reg := NewRegistry()
		// Insertion order differs from name order on purpose.
		reg.Counter("z.last").Add(9)
		reg.Counter("a.first").Add(1)
		reg.Gauge("m.mid").Set(0.5)
		reg.Histogram("k.hist", []float64{1, 2}).Observe(1.5)
		reg.Histogram("b.hist", []float64{1, 2}).Observe(0.5)
		return reg.Snapshot()
	}
	a, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a, b)
	}
	snap := build()
	if snap.Counters[0].Name != "a.first" || snap.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if snap.Histograms[0].Name != "b.hist" {
		t.Fatalf("histograms not sorted: %+v", snap.Histograms)
	}
	if got := snap.Counter("z.last"); got != 9 {
		t.Fatalf("Counter lookup = %d, want 9", got)
	}
	if got := snap.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serving.shed").Add(2)
	reg.Gauge("queue.depth").Set(3)
	reg.Histogram("lat.ms", []float64{10, 100}).Observe(42)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter serving.shed 2\n",
		"gauge queue.depth 3\n",
		"histogram lat.ms count=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				reg.Counter("c").Inc()
				reg.Gauge("g").Add(1)
				reg.Histogram("h", []float64{50, 500}).Observe(float64(j))
			}
		}(i)
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := reg.Gauge("g").Value(); got != 1600 {
		t.Fatalf("gauge = %g, want 1600", got)
	}
	if got := reg.Histogram("h", nil).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestCounterSetForRestore(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("restore.me")
	c.Add(5)
	c.Set(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("after Set: %d, want 42", got)
	}
}
