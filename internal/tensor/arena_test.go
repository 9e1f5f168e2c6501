package tensor

import (
	"math"
	"testing"

	"edgetune/internal/sim"
)

// poison fills everything the arena can hand out without growing with
// NaNs and takes it back.
func poison(a *Arena) {
	a.Reset()
	for i := range a.floats.buf {
		a.floats.buf[i] = math.NaN()
	}
	for i := range a.ints.buf {
		a.ints.buf[i] = -1 << 40
	}
	a.Reset()
}

// TestArenaHandsOutClearedMemoryExceptToResize: what New, Floats and
// Ints hand out of a poisoned arena is zero; what Resize grows into is
// whatever was there, as on the heap it is whatever make returns.
func TestArenaHandsOutClearedMemoryExceptToResize(t *testing.T) {
	a := new(Arena)
	for round := 0; round < 3; round++ { // round 0 spills, round 1 runs on the block, round 2 on a poisoned one
		if round == 2 {
			poison(a)
		}
		a.Reset()
		m := a.New(3, 4)
		f, n := a.Floats(5), a.Ints(6)
		for _, v := range append(append([]float64{}, m.Data...), f...) {
			if v != 0 {
				t.Fatalf("round %d: New/Floats handed out %v", round, v)
			}
		}
		for _, v := range n {
			if v != 0 {
				t.Fatalf("round %d: Ints handed out %d", round, v)
			}
		}
		buf := a.Buffer()
		buf.Resize(2, 2)
		if round == 2 && !math.IsNaN(buf.Data[0]) {
			t.Errorf("Resize cleared its storage (%v): that is work nobody asked for", buf.Data[0])
		}
		for i := range m.Data {
			m.Data[i], f[i%len(f)], n[i%len(n)] = 1, 2, 3
		}
	}
}

// TestArenaPiecesDoNotOverlap: pieces handed out between two Resets are
// disjoint, an append to one moves it to the heap instead of writing
// into its neighbour, and a matrix grown by Resize leaves its old piece
// intact for whoever still reads it.
func TestArenaPiecesDoNotOverlap(t *testing.T) {
	a := new(Arena)
	for round := 0; round < 2; round++ {
		a.Reset()
		p, q := a.Ints(4), a.Ints(4)
		x, y := a.Floats(4), a.New(2, 2)
		for i := 0; i < 4; i++ {
			p[i], q[i], x[i], y.Data[i] = 1, 2, 3, 4
		}
		p = append(p, 9)
		x = append(x, 9)
		buf := a.Buffer()
		old := buf.Resize(1, 2).Data
		old[0], old[1] = 5, 5
		grown := buf.Resize(3, 3)
		for i := range grown.Data {
			grown.Data[i] = 6
		}
		for i := 0; i < 4; i++ {
			if p[i] != 1 || q[i] != 2 || x[i] != 3 || y.Data[i] != 4 {
				t.Fatalf("round %d: pieces overlap: %v %v %v %v", round, p, q, x, y.Data)
			}
		}
		if old[0] != 5 || old[1] != 5 {
			t.Fatalf("round %d: growing a buffer wrote into the piece it grew out of", round)
		}
	}
}

// TestArenaSettlesAtTheLargestDemand: after one use that spilt, the
// same use runs without a single allocation, and a smaller one does too.
func TestArenaSettlesAtTheLargestDemand(t *testing.T) {
	a := new(Arena)
	use := func(scale int) {
		a.Reset()
		m := a.New(4*scale, 8)
		buf := a.Buffer()
		buf.Resize(2*scale, 8)
		buf.Resize(3*scale, 8)
		_ = a.Ints(10 * scale)
		_ = a.Floats(scale)
		_ = m
	}
	use(4)
	use(4) // the Reset in here grew the blocks
	for _, scale := range []int{4, 1, 3} {
		if n := testing.AllocsPerRun(10, func() { use(scale) }); n != 0 {
			t.Errorf("a use at scale %d of an arena settled at scale 4 allocates %.0f times", scale, n)
		}
	}
	use(9)
	use(9)
	if n := testing.AllocsPerRun(10, func() { use(9) }); n != 0 {
		t.Errorf("the arena did not settle at the new largest demand: %.0f allocations", n)
	}
}

// TestNilArenaIsTheHeap: the heap constructors are the arena's methods
// on a nil arena, so both build the same matrices from the same draws.
func TestNilArenaIsTheHeap(t *testing.T) {
	var a *Arena
	a.Reset() // must not panic
	viaNil, heap, inArena := a.Randn(3, 5, 0.5, sim.NewRNG(4)), Randn(3, 5, 0.5, sim.NewRNG(4)), new(Arena).Randn(3, 5, 0.5, sim.NewRNG(4))
	if !bitEqual(viaNil, heap) || !bitEqual(inArena, heap) {
		t.Error("Randn draws differ between the heap, a nil arena and an arena")
	}
	if len(a.Floats(3)) != 3 || len(a.Ints(2)) != 2 {
		t.Error("a nil arena's Floats/Ints have the wrong length")
	}
	buf := a.Buffer()
	if buf.Resize(2, 2); len(buf.Data) != 4 {
		t.Error("a nil arena's Buffer does not grow")
	}
}

func TestArgmaxRowsIntoOverwrites(t *testing.T) {
	m, _ := FromSlice(3, 3, []float64{1, 9, 2, 7, 7, 1, math.Inf(-1), math.Inf(-1), math.Inf(-1)})
	dst := []int{5, 5, 5}
	if got := m.ArgmaxRowsInto(dst); &got[0] != &dst[0] || got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Errorf("ArgmaxRowsInto over a dirty slice = %v, want [1 0 0] in place", got)
	}
	if got := m.ArgmaxRows(); got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Errorf("ArgmaxRows = %v, want [1 0 0]", got)
	}
}
