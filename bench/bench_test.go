package main

import (
	"math"
	"reflect"
	"testing"
)

// TestSmoke runs all four workloads, measured and traced, at the tiny
// scale: a refactor of core, store or cluster that breaks the harness
// fails here rather than at the next benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	if code := run([]string{"-scale", "tiny", "-out", t.TempDir()}); code != 0 {
		t.Fatalf("tiny run exited %d", code)
	}
}

// TestDeclaration keeps BENCHMARK.json and the harness in step: same
// workloads, same metric names and units, in both tables.
func TestDeclaration(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, harness %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the harness reports %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := decl.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit {
			t.Errorf("end-to-end %d: declared %s [%s], harness %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
		// A gated metric holds 0.10 or is demoted to the per-layer table.
		// setup_s, which the acceptance rule does not gate on spread, takes
		// the widest bound the contract allows.
		limit := 0.10
		if d.Name == "setup_s" {
			limit = 0.25
		}
		if d.Bound <= 0 || d.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", d.Name, d.Bound, limit)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the harness reports %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if d := decl.PerLayer[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("per-layer %d: declared %s [%s], harness %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
}

func TestQuantile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.9, 7},
		{[]float64{1, 3}, 0.5, 2},
		{ten, 0, 1},
		{ten, 0.5, 5.5},
		{ten, 0.9, 9.1},
		{ten, 1, 10},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if got := quantile([]uint32{100, 200, 400}, 0.5); got != 200 {
		t.Errorf("quantile over uint32 = %v, want 200", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// The highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {7, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{10.0, 12.5, 11.0, 10.5, 13.0, 9.5, 10.2, 10.8, 11.7, 12.1}, 0.1880733944954129},
		{[]float64{5, 1}, 2.0},
		{[]float64{3, 3, 3}, 0},
		{[]float64{4}, 0},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "submit", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "await", StartNs: 30, EndNs: 90},
		{ID: 4, Parent: 3, Name: "inner", StartNs: 40, EndNs: 50},
		{ID: 5, Parent: 0, Name: "op", StartNs: 200, EndNs: 260},
		{ID: 6, Parent: 5, Name: "a", StartNs: 210, EndNs: 240},
		{ID: 7, Parent: 5, Name: "b", StartNs: 220, EndNs: 250},    // overlaps a: covered once
		{ID: 8, Parent: 5, Name: "late", StartNs: 255, EndNs: 300}, // runs past its parent: clipped
		{ID: 9, Parent: 42, Name: "orphan", StartNs: 0, EndNs: 5},
	}
	want := []int64{20, 20, 50, 10, 15, 30, 30, 45, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans)["op"]; by.Count != 2 || by.SelfNs != 35 || by.TotalNs != 160 {
		t.Errorf("op totals %+v, want count 2, self 35, total 160", by)
	}
}

func TestRecorderNilAndOrder(t *testing.T) {
	var none *recorder
	none.end(none.begin(0, "x", 1)) // must not panic
	if none.snapshot() != nil {
		t.Error("nil recorder returned spans")
	}
	r := newRecorder()
	root := r.begin(0, "op", 7)
	child := r.begin(root, "call", 7)
	r.end(child)
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Op != 7 || s[1].Op != 7 {
		t.Fatalf("spans %+v: want a root and its child sharing op 7", s)
	}
	if s[0].StartNs > s[1].StartNs || s[1].EndNs > s[0].EndNs {
		t.Errorf("child %+v not inside root %+v", s[1], s[0])
	}
}

// The same seed gives the same inputs; another seed, other inputs; two
// clients never share a signature.
func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64, client int) []request {
		g := newSigGen(seed, client)
		out := make([]request, 2000)
		for i := range out {
			out[i] = g.fresh()
		}
		return out
	}
	a, b, other, peer := draw(1, 0), draw(1, 0), draw(2, 0), draw(1, 1)
	seen := map[string]bool{}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two runs of seed 1: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != other[i] {
			differs = true
		}
		if seen[a[i].sig] {
			t.Fatalf("signature %s issued twice", a[i].sig)
		}
		seen[a[i].sig] = true
		if a[i].flops <= 0 || a[i].params <= 0 {
			t.Fatalf("request %+v has no footprint", a[i])
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 generated the same requests")
	}
	for _, r := range peer {
		if seen[r.sig] {
			t.Fatalf("clients 0 and 1 both issued %s", r.sig)
		}
	}
}

func TestRedrawFavoursEarlyRanks(t *testing.T) {
	r := newRNG(3)
	const issued, draws = 1000, 20000
	low := 0
	for i := 0; i < draws; i++ {
		k := redraw(r, issued)
		if k < 0 || k >= issued {
			t.Fatalf("redraw returned rank %d of %d", k, issued)
		}
		if k < 32 { // issued^u < 32 for u < 0.5: half the draws
			low++
		}
	}
	if low < draws*45/100 || low > draws*55/100 {
		t.Errorf("%d of %d draws fell on the first 32 ranks, want about half", low, draws)
	}
	if redraw(r, 1) != 0 {
		t.Error("redraw over one signature must return it")
	}
}

// The op lists are fixed: the same seed deals the same lists, every pass
// covers the whole pool whatever the seed, and the clients share a pass
// between them without overlap.
func TestJobListsCoverWholePoolEachPass(t *testing.T) {
	pool := []uint64{3, 5, 8, 13, 21, 34}
	a, b, other := jobLists(9, pool, 2, 9), jobLists(9, pool, 2, 9), jobLists(10, pool, 2, 9)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different lists: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, other) {
		t.Error("seeds 9 and 10 dealt the same order")
	}
	for _, lists := range [][][]jobSpec{a, other} {
		seen := map[int]map[uint64]int{}
		for c, l := range lists {
			if len(l) != 9 {
				t.Fatalf("client %d got %d jobs, want 9", c, len(l))
			}
			for _, js := range l {
				if seen[js.pass] == nil {
					seen[js.pass] = map[uint64]int{}
				}
				seen[js.pass][js.seed]++
			}
		}
		for pass := 0; pass < 3; pass++ { // 18 jobs over a pool of 6
			if len(seen[pass]) != len(pool) {
				t.Errorf("pass %d covered %d of %d pool seeds: %v", pass, len(seen[pass]), len(pool), seen[pass])
			}
		}
	}
}

// At the declared run length the op lists are the issue's: whole pools.
func TestDeclaredOpCounts(t *testing.T) {
	cfg := config{seed: 1, seconds: 20, clients: 2}
	if n := len(tuneIC.jobs(cfg)[0]); n != len(icPool) || n != 10 {
		t.Errorf("tune_ic runs %d jobs, want the pool of 10 once", n)
	}
	if l := tuneCluster.jobs(cfg); len(l) != 2 || len(l[0])+len(l[1]) != len(nlpPool) || len(l[0]) != 6 {
		t.Errorf("tune_cluster deals %d lists of %d jobs, want 2 of 6 (the pool of 12 once)", len(l), len(l[0]))
	}
	if n := serveMiss.requests(cfg); n != 15000 {
		t.Errorf("serve_miss sends %d requests per client, want 15000", n)
	}
	if n := serveMixed.requests(cfg); n != 1000000 {
		t.Errorf("serve_mixed sends %d requests per client, want 1000000", n)
	}
}
