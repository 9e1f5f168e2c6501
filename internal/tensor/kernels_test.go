package tensor

import (
	"fmt"
	"math"
	"testing"

	"edgetune/internal/sim"
)

// The three reference kernels below are the allocating loops as they
// stood before the …Into forms existed; TestIntoKernelsBitEqual holds
// the kernels to them element for element.
func refMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func refMatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(k, i)
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

func refMatMulBT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// kernelOps are the three ops under their common description: out is
// rows×cols, every element a sum over inner. x is the rows×inner
// coefficient matrix (the one whose zeros are skipped) and y the
// inner×cols one; operands lays them out the way the op takes them.
var kernelOps = []struct {
	name     string
	ref      func(a, b *Matrix) *Matrix
	into     func(out, a, b *Matrix) *Matrix
	wrap     func(a, b *Matrix) *Matrix
	operands func(x, y *Matrix) (a, b *Matrix)
	// ofLayer is the op's (rows, inner, cols) for one Dense layer at
	// one batch size: forward x·W, weight gradient xᵀ·g, input gradient
	// g·Wᵀ.
	ofLayer func(batch, in, out int) (rows, inner, cols int)
}{
	{"MatMul", refMatMul, MatMulInto, MatMul,
		func(x, y *Matrix) (a, b *Matrix) { return x, y },
		func(batch, in, out int) (int, int, int) { return batch, in, out }},
	{"MatMulAT", refMatMulAT, MatMulATInto, MatMulAT,
		func(x, y *Matrix) (a, b *Matrix) { return transposed(x), y },
		func(batch, in, out int) (int, int, int) { return in, batch, out }},
	{"MatMulBT", refMatMulBT, MatMulBTInto, MatMulBT,
		func(x, y *Matrix) (a, b *Matrix) { return x, transposed(y) },
		func(batch, in, out int) (int, int, int) { return batch, out, in }},
}

func transposed(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// shippedLayers are the Dense layers the four workloads' models are
// built from (workload.buildResNet / buildM5 / buildRNN / buildYOLO over
// the dataset constants; SR once per embedded dimension), and
// shippedBatches the two ends of the training batch range.
var (
	shippedLayers = []struct {
		workload string
		in, out  int
	}{
		{"IC", 24, 32}, {"IC", 32, 32}, {"IC", 32, 10},
		{"SR", 40, 32}, {"SR", 32, 32}, {"SR", 32, 12},
		{"SR", 40, 64}, {"SR", 64, 64}, {"SR", 64, 12},
		{"SR", 40, 128}, {"SR", 128, 128}, {"SR", 128, 12},
		{"NLP", 128, 48}, {"NLP", 48, 4},
		{"OD", 32, 64}, {"OD", 64, 64}, {"OD", 64, 16},
	}
	shippedBatches = []int{32, 512}
)

// operandClasses are the coefficient matrices the models feed the
// kernels, by the share of entries that are exactly zero: the dataset's
// features and the residual stream, a ReLU's output, and a bag of
// tokens at a long stride.
var operandClasses = []struct {
	name  string
	zeros float64
}{{"dense", 0}, {"relu", 0.5}, {"tokens", 0.92}}

// randnZeros is Randn with about the given share of entries exactly
// zero, so that the kernels' skip-zero branch is exercised.
func randnZeros(rows, cols int, zeros float64, rng *sim.RNG) *Matrix {
	m := Randn(rows, cols, 1, rng)
	for i := range m.Data {
		if rng.Float64() < zeros {
			m.Data[i] = 0
		}
	}
	return m
}

// bitEqual reports whether two matrices have the same shape and the
// same elements bit for bit — the sign of a zero included — counting
// any NaN equal to any other.
func bitEqual(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
			return false
		}
	}
	return true
}

// TestIntoKernelsBitEqual: every …Into kernel — writing into one reused
// output that is dirty and of the wrong shape from the previous round —
// and its allocating wrapper equal the pre-change loops bit for bit, not
// within a tolerance, over every path through the routines and every
// shape the workloads ship.
func TestIntoKernelsBitEqual(t *testing.T) {
	rng := sim.NewRNG(99)
	out := Randn(3, 3, 1, rng)
	check := func(t *testing.T, x, y *Matrix) {
		t.Helper()
		for _, op := range kernelOps {
			a, b := op.operands(x, y)
			want := op.ref(a, b)
			if got := op.into(out, a, b); got != out || !bitEqual(got, want) {
				t.Fatalf("%sInto(%dx%dx%d) differs from the reference loop", op.name, x.Rows, x.Cols, y.Cols)
			}
			if !bitEqual(op.wrap(a, b), want) {
				t.Fatalf("%s(%dx%dx%d) differs from the reference loop", op.name, x.Rows, x.Cols, y.Cols)
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		for round := 0; round < 200; round++ {
			m, k, n := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(9)
			check(t, randnZeros(m, k, 1.0/3, rng), randnZeros(k, n, 1.0/3, rng))
		}
	})

	// Odd and even row counts, every count of non-zeros mod 4 in an
	// a-vector (what the gather's groups of four leave over, within a
	// stretch and carried across two), output widths that are not
	// multiples of four (what BT's groups of four rows leave over).
	t.Run("routines", func(t *testing.T) {
		for rows := 1; rows <= 5; rows++ {
			for _, inner := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 31, 32, 33, 35, 64, 70} {
				for _, n := range []int{1, 3, 4, 7, 10} {
					for _, c := range operandClasses {
						check(t, randnZeros(rows, inner, c.zeros, rng), Randn(inner, n, 1, rng))
					}
					// Row r holds exactly (r + inner) mod (inner+1)
					// non-zeros, scattered.
					x := New(rows, inner)
					for r := 0; r < rows; r++ {
						for _, k := range rng.Perm(inner)[:(r+inner)%(inner+1)] {
							x.Set(r, k, rng.NormFloat64())
						}
					}
					check(t, x, Randn(inner, n, 1, rng))
				}
			}
		}
	})

	t.Run("zero row and column", func(t *testing.T) {
		for _, rows := range []int{4, 5} {
			x := Randn(rows, 9, 1, rng)
			for k := 0; k < x.Cols; k++ {
				x.Set(1, k, 0)
			}
			for r := 0; r < rows; r++ {
				x.Set(r, 2, 0)
			}
			check(t, x, Randn(9, 6, 1, rng))
		}
	})

	// What sits in b opposite a zero never reaches the sum: not a NaN,
	// not an infinity, and not the sign of a −0. In the first matrix a
	// special is opposite zeros only, so every result is finite; in the
	// second some rows do multiply by it.
	t.Run("specials opposite zeros", func(t *testing.T) {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		for _, rows := range []int{1, 2, 3, 6} {
			for _, zeros := range []float64{0, 0.5} {
				x, y := randnZeros(rows, 11, zeros, rng), Randn(11, 5, 1, rng)
				for i, v := range specials {
					k := 1 + 2*i
					for r := 0; r < rows; r++ {
						x.Set(r, k, 0)
					}
					y.Set(k, i, v)
					y.Set(k, 4, v)
				}
				for _, op := range kernelOps[:2] { // BT skips nothing
					a, b := op.operands(x, y)
					for _, v := range op.into(out, a, b).Data {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%sInto let %v through opposite a zero", op.name, v)
						}
					}
				}
				check(t, x, y)
				x.Set(rows-1, 1, 2) // now the last row does meet the NaN
				x.Set(0, 3, -1)     // and the first the +Inf
				check(t, x, y)
			}
		}
	})

	t.Run("shipped shapes", func(t *testing.T) {
		for _, l := range shippedLayers {
			for _, batch := range shippedBatches {
				for _, c := range operandClasses {
					for _, op := range kernelOps {
						rows, inner, cols := op.ofLayer(batch, l.in, l.out)
						a, b := op.operands(randnZeros(rows, inner, c.zeros, rng), Randn(inner, cols, 1, rng))
						if !bitEqual(op.into(out, a, b), op.ref(a, b)) {
							t.Fatalf("%s %sInto(%dx%dx%d, %s) differs from the reference loop", l.workload, op.name, rows, inner, cols, c.name)
						}
					}
				}
			}
		}
	})
}

// TestKernelsAllocateNothing: on an output that has already held the
// shape, no …Into kernel allocates, whichever routine it takes.
func TestKernelsAllocateNothing(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, c := range operandClasses {
		x, y := randnZeros(7, 13, c.zeros, rng), Randn(13, 6, 1, rng)
		for _, op := range kernelOps {
			a, b := op.operands(x, y)
			out := op.wrap(a, b)
			if n := testing.AllocsPerRun(10, func() { op.into(out, a, b) }); n != 0 {
				t.Errorf("%sInto on a %s operand: %.0f allocations, want 0", op.name, c.name, n)
			}
		}
	}
}

// BenchmarkKernels times each …Into kernel at every shape and operand
// class the workloads ship, as
// BenchmarkKernels/<op>/<workload>-<rows>x<inner>x<cols>/<class>, and
// reports GFLOP/s over the nominal 2·rows·inner·cols. A training step
// never sees the same batch twice in a row, so an iteration takes the
// next of enough coefficient matrices (64 K entries between them) that
// the branch predictor cannot learn where one's zeros are.
func BenchmarkKernels(b *testing.B) {
	for _, op := range kernelOps {
		for _, l := range shippedLayers {
			for _, batch := range shippedBatches {
				rows, inner, cols := op.ofLayer(batch, l.in, l.out)
				for _, c := range operandClasses {
					b.Run(fmt.Sprintf("%s/%s-%dx%dx%d/%s", op.name, l.workload, rows, inner, cols, c.name), func(b *testing.B) {
						rng := sim.NewRNG(1)
						y := Randn(inner, cols, 1, rng)
						as := make([]*Matrix, 1+(1<<16)/(rows*inner))
						var bm *Matrix
						for i := range as {
							as[i], bm = op.operands(randnZeros(rows, inner, c.zeros, rng), y)
						}
						out := op.wrap(as[0], bm)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							op.into(out, as[i%len(as)], bm)
						}
						b.ReportMetric(2*float64(rows)*float64(inner)*float64(cols)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
					})
				}
			}
		}
	}
}
