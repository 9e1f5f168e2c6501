// Package tensor implements the dense linear algebra needed by the
// neural-network training substrate: row-major float64 matrices with the
// handful of operations mini-batch SGD requires (matmul, transposed
// matmuls, element-wise maps, row/column reductions).
//
// The package is deliberately minimal — it replaces the role PyTorch's
// tensor library plays in the original EdgeTune prototype, scaled to the
// model sizes this reproduction trains.
package tensor

import (
	"fmt"
	"math"

	"edgetune/internal/sim"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
	// arena is where Resize takes storage from when Data is too small;
	// nil is the heap.
	arena *Arena
}

// New returns a zero matrix of the given shape on the heap. It panics on
// non-positive dimensions, which always indicate a programming error in
// the caller.
func New(rows, cols int) *Matrix { return (*Arena)(nil).New(rows, cols) }

// FromSlice wraps data (length rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("tensor: invalid shape %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %dx%d", len(data), rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}, nil
}

// Randn fills a new heap matrix with normal(0, std) values drawn from
// rng.
func Randn(rows, cols int, std float64, rng *sim.RNG) *Matrix {
	return (*Arena)(nil).Randn(rows, cols, std, rng)
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns the element at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Row returns a view of row r (shared storage).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Resize reshapes m to rows x cols in place, reusing its storage when
// the capacity allows, and returns m. The contents afterwards are
// unspecified: kernels that accumulate clear the matrix themselves.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = m.arena.resizeStorage(n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// RowSlice returns a view of rows [lo, hi) sharing m's storage, its
// header taken from a (a nil a is the heap).
func (m *Matrix) RowSlice(a *Arena, lo, hi int) *Matrix {
	v := &Take[Matrix](a, 1)[0]
	*v = Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
	return v
}

// zeroed resizes out and clears it, for the kernels that accumulate.
func zeroed(out *Matrix, rows, cols int) *Matrix {
	out.Resize(rows, cols)
	for i := range out.Data {
		out.Data[i] = 0
	}
	return out
}

// MatMul computes a @ b into a new matrix. Shapes must agree.
func MatMul(a, b *Matrix) *Matrix { return MatMulInto(New(a.Rows, b.Cols), a, b) }

// MatMulAT computes aᵀ @ b (a transposed) into a new matrix.
func MatMulAT(a, b *Matrix) *Matrix { return MatMulATInto(New(a.Cols, b.Cols), a, b) }

// MatMulBT computes a @ bᵀ (b transposed) into a new matrix.
func MatMulBT(a, b *Matrix) *Matrix { return MatMulBTInto(New(a.Rows, b.Rows), a, b) }

// MatMulInto computes a @ b into out, resizing it, and returns out. As
// for every …Into kernel, out must not alias an operand, and each
// output element accumulates its products in increasing k order — the
// order recommendation digests depend on.
func MatMulInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	zeroed(out, a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		gather(out.Row(i), a.Row(i), 1, a.Cols, b.Data)
	}
	return out
}

// MatMulATInto computes aᵀ @ b into out; see MatMulInto.
func MatMulATInto(out, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT shape mismatch %dx%d / %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	zeroed(out, a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ { // a's column i, read at stride a.Cols
		gather(out.Row(i), a.Data[i:], a.Cols, a.Rows, b.Data)
	}
	return out
}

// PairsMatMulInto is MatMulInto for an a whose rows are given as the
// (k, value) pairs of their non-zero entries in increasing k, padded with
// zeros: a.At(i, 2p) is k as a float64 and a.At(i, 2p+1) the value. out
// is bit for bit what MatMulInto gives for the rows the pairs stand for,
// and what the kernel reads of a row is its pairs, not its width.
func PairsMatMulInto(out, a, b *Matrix) *Matrix {
	if a.Cols%2 != 0 {
		panic(fmt.Sprintf("tensor: pairs matmul over %d columns, not pairs", a.Cols))
	}
	zeroed(out, a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		gatherPairs(out.Row(i), a.Row(i), b.Data)
	}
	return out
}

// PairsMatMulATInto is MatMulATInto for an a given as pairs (see
// PairsMatMulInto) whose rows stand for rows of width entries; out is
// width × b.Cols.
func PairsMatMulATInto(out, a, b *Matrix, width int) *Matrix {
	if a.Rows != b.Rows || a.Cols%2 != 0 {
		panic(fmt.Sprintf("tensor: pairs matmulAT shape mismatch %dx%d / %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	zeroed(out, width, b.Cols)
	for r := 0; r < a.Rows; r++ {
		scatterPairs(out.Data, out.Cols, a.Row(r), b.Row(r))
	}
	return out
}

// MatMulBTInto computes a @ bᵀ into out; see MatMulInto.
func MatMulBTInto(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT shape mismatch %dx%d / %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out.Resize(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		dots(out.Row(i), a.Row(i), b.Data)
	}
	return out
}

// AddRowVec adds vector v (length Cols) to every row of m in place.
func (m *Matrix) AddRowVec(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVec length %d != cols %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Add accumulates other into m in place. Shapes must match.
func (m *Matrix) Add(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: Add shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Apply maps f over every element in place.
func (m *Matrix) Apply(f func(float64) float64) {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
}

// ColSumsInto writes the per-column sums into sums (length Cols) and
// returns it.
func (m *Matrix) ColSumsInto(sums []float64) []float64 {
	if len(sums) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto length %d != cols %d", len(sums), m.Cols))
	}
	for j := range sums {
		sums[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// ArgmaxRowsInto writes the index of the maximum element of each row
// into out (length Rows) and returns it.
func (m *Matrix) ArgmaxRowsInto(out []int) []int {
	if len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: ArgmaxRowsInto length %d != rows %d", len(out), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		best, bestIdx := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bestIdx = v, j
			}
		}
		out[i] = bestIdx
	}
	return out
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func (m *Matrix) SoftmaxRows() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether two matrices have the same shape and elements
// within tolerance eps. A NaN on either side is a mismatch.
func Equal(a, b *Matrix, eps float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !(math.Abs(a.Data[i]-b.Data[i]) <= eps) {
			return false
		}
	}
	return true
}
