package tensor

import (
	"fmt"

	"edgetune/internal/sim"
)

// Arena is bump storage for everything one network is made of and
// trains on: the layer values themselves, weights, gradients, optimiser
// state, the layers' activation buffers, index slices, a trial's
// feature matrices. Reset takes it all
// back at once, so a worker that trains one network after another keeps
// the same memory instead of handing each network's to the collector.
// What an arena handed out is valid until its next Reset; nothing that
// outlives the network may hold a slice of it.
//
// A nil *Arena is the heap: every method works on it, and that is how
// the constructors that take no arena are written. An Arena is
// single-goroutine, like the network built on it.
type Arena struct {
	floats slab[float64]
	ints   slab[int]
	// typed holds a slab per element type Take was asked for: the
	// headers New returns pointers to, and the values and slices a
	// network is made of.
	typed []typedSlab
}

// typedSlab is a Take slab as Reset sees it.
type typedSlab interface{ release() }

// slab is one contiguous block handed out front to back. A request
// that no longer fits is served from the heap and counted, and the next
// reset replaces the block with one large enough for both, so a slab
// settles at the largest demand it has seen.
type slab[T any] struct {
	buf   []T
	used  int // buf[:used] is handed out
	spilt int // elements served from the heap since the last reset
}

func (s *slab[T]) reset() {
	if s.spilt > 0 {
		s.buf = make([]T, s.used+s.spilt)
	}
	s.used, s.spilt = 0, 0
}

// take returns n elements and whether they are known to be zero (fresh
// from the heap) already.
func (s *slab[T]) take(n int) (out []T, zero bool) {
	if s.used+n > len(s.buf) {
		s.spilt += n
		return make([]T, n), true
	}
	// The capacity stops at the piece's end: an append must move the
	// slice to the heap, never write into the neighbouring piece.
	out = s.buf[s.used : s.used+n : s.used+n]
	s.used += n
	return out, false
}

// release clears what a Take slab handed out and takes it back: a
// stale pointer in it would keep what it points to reachable, and what
// Take hands out next must be zero.
func (s *slab[T]) release() {
	clear(s.buf[:s.used])
	s.reset()
}

// Reset takes back everything the arena handed out. The float and int
// memory is not cleared: New, Floats and Ints clear what they hand out,
// Resize — which promises nothing about contents on the heap either —
// does not. What Take handed out is cleared here.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.floats.reset()
	a.ints.reset()
	for _, s := range a.typed {
		s.release()
	}
}

// Take returns n zero values of T: on a nil arena from the heap, else
// from the slab the arena keeps for T, which spills and regrows as the
// float and int ones do. It is how a network's layer values, and its
// layer and parameter slices, live on the arena its weights do.
func Take[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	for _, s := range a.typed {
		if s, ok := s.(*slab[T]); ok {
			out, _ := s.take(n)
			return out
		}
	}
	s := new(slab[T])
	a.typed = append(a.typed, s)
	out, _ := s.take(n)
	return out
}

// resizeStorage is what Matrix.Resize grows into: n floats of
// unspecified content.
func (a *Arena) resizeStorage(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	out, _ := a.floats.take(n)
	return out
}

// Floats returns n zeroed floats.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	out, zero := a.floats.take(n)
	if !zero {
		clear(out)
	}
	return out
}

// Ints returns n zeroed ints.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	out, zero := a.ints.take(n)
	if !zero {
		clear(out)
	}
	return out
}

// New returns a zero matrix of the given shape. It panics on
// non-positive dimensions, which always indicate a programming error in
// the caller.
func (a *Arena) New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	m := &Take[Matrix](a, 1)[0]
	*m = Matrix{Rows: rows, Cols: cols, Data: a.Floats(rows * cols), arena: a}
	return m
}

// Randn fills a new matrix with normal(0, std) values drawn from rng.
func (a *Arena) Randn(rows, cols int, std float64, rng *sim.RNG) *Matrix {
	m := a.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// Buffer returns an empty matrix whose Resize takes its storage from
// the arena: the form in which a layer owns an activation or gradient
// buffer, and in which a matrix is carved whose every element is about
// to be written.
func (a *Arena) Buffer() Matrix { return Matrix{arena: a} }
