package tensor_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"edgetune/internal/dataset"
	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// The three reference kernels below are the allocating loops as they
// stood before the …Into forms existed; TestIntoKernelsBitEqual holds
// the kernels to them element for element.
func refMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Cols)
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

func refMatMulAT(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Cols, b.Cols)
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

func refMatMulBT(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(a.Rows, b.Rows)
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

// pairsOf is m with each row given as the (k, value) pairs of its
// non-zero entries in increasing k, the form the Pairs ops read, padded
// with zeros so that every row ends in at least one padding pair.
func pairsOf(m *tensor.Matrix) *tensor.Matrix {
	most := 0
	for i := 0; i < m.Rows; i++ {
		n := 0
		for _, v := range m.Row(i) {
			if v != 0 {
				n++
			}
		}
		most = max(most, n)
	}
	p := tensor.New(m.Rows, 2*(most+1))
	for i := 0; i < m.Rows; i++ {
		row := p.Row(i)[:0]
		for k, v := range m.Row(i) {
			if v != 0 {
				row = append(row, float64(k), v)
			}
		}
	}
	return p
}

// unpaired is the width-wide matrix whose rows the pair rows of p stand
// for.
func unpaired(p *tensor.Matrix, width int) *tensor.Matrix {
	m := tensor.New(p.Rows, width)
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		for q := 0; q < len(row); q += 2 {
			if row[q+1] != 0 {
				m.Set(i, int(row[q]), row[q+1])
			}
		}
	}
	return m
}

// kernelOps are the five ops under their common description: out is
// rows×cols, every element a sum over inner. x is the rows×inner
// coefficient matrix (the one whose zeros are skipped) and y the
// inner×cols one; operands lays them out the way the op takes them — the
// Pairs ops take as pairs the rows of x, or of xᵀ for the weight
// gradient — and a Pairs op's reference is the dense loop run on the rows
// its pairs stand for. ref and into are told rows, the one dimension an
// op over pairs cannot read off its operands; wrap is nil where an op
// has no allocating form.
var kernelOps = []struct {
	name     string
	ref      func(a, b *tensor.Matrix, rows int) *tensor.Matrix
	into     func(out, a, b *tensor.Matrix, rows int) *tensor.Matrix
	wrap     func(a, b *tensor.Matrix) *tensor.Matrix
	operands func(x, y *tensor.Matrix) (a, b *tensor.Matrix)
	// ofLayer is the op's (rows, inner, cols) for one Dense layer at
	// one batch size: forward x·W, weight gradient xᵀ·g, input gradient
	// g·Wᵀ.
	ofLayer func(batch, in, out int) (rows, inner, cols int)
}{
	{"MatMul",
		func(a, b *tensor.Matrix, _ int) *tensor.Matrix { return refMatMul(a, b) },
		func(out, a, b *tensor.Matrix, _ int) *tensor.Matrix { return tensor.MatMulInto(out, a, b) },
		tensor.MatMul,
		func(x, y *tensor.Matrix) (a, b *tensor.Matrix) { return x, y },
		func(batch, in, out int) (int, int, int) { return batch, in, out }},
	{"MatMulAT",
		func(a, b *tensor.Matrix, _ int) *tensor.Matrix { return refMatMulAT(a, b) },
		func(out, a, b *tensor.Matrix, _ int) *tensor.Matrix { return tensor.MatMulATInto(out, a, b) },
		tensor.MatMulAT,
		func(x, y *tensor.Matrix) (a, b *tensor.Matrix) { return transposed(x), y },
		func(batch, in, out int) (int, int, int) { return in, batch, out }},
	{"MatMulBT",
		func(a, b *tensor.Matrix, _ int) *tensor.Matrix { return refMatMulBT(a, b) },
		func(out, a, b *tensor.Matrix, _ int) *tensor.Matrix { return tensor.MatMulBTInto(out, a, b) },
		tensor.MatMulBT,
		func(x, y *tensor.Matrix) (a, b *tensor.Matrix) { return x, transposed(y) },
		func(batch, in, out int) (int, int, int) { return batch, out, in }},
	{"PairsMatMul",
		func(a, b *tensor.Matrix, _ int) *tensor.Matrix { return refMatMul(unpaired(a, b.Rows), b) },
		func(out, a, b *tensor.Matrix, _ int) *tensor.Matrix { return tensor.PairsMatMulInto(out, a, b) },
		nil,
		func(x, y *tensor.Matrix) (a, b *tensor.Matrix) { return pairsOf(x), y },
		func(batch, in, out int) (int, int, int) { return batch, in, out }},
	{"PairsMatMulAT",
		func(a, b *tensor.Matrix, rows int) *tensor.Matrix { return refMatMulAT(unpaired(a, rows), b) },
		func(out, a, b *tensor.Matrix, rows int) *tensor.Matrix {
			return tensor.PairsMatMulATInto(out, a, b, rows)
		},
		nil,
		func(x, y *tensor.Matrix) (a, b *tensor.Matrix) { return pairsOf(transposed(x)), y },
		func(batch, in, out int) (int, int, int) { return in, batch, out }},
}

func transposed(m *tensor.Matrix) *tensor.Matrix {
	t := tensor.New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// TestTransposedMatMulsAgree checks MatMulAT and MatMulBT against explicit
// transposition through MatMul.
func TestTransposedMatMulsAgree(t *testing.T) {
	rng := sim.NewRNG(1)
	a := tensor.Randn(4, 5, 1, rng)
	b := tensor.Randn(4, 3, 1, rng)
	if !tensor.Equal(tensor.MatMulAT(a, b), tensor.MatMul(transposed(a), b), 1e-9) {
		t.Error("MatMulAT disagrees with explicit transpose")
	}

	c := tensor.Randn(6, 5, 1, rng)
	d := tensor.Randn(2, 5, 1, rng)
	if !tensor.Equal(tensor.MatMulBT(d, c), tensor.MatMul(d, transposed(c)), 1e-9) {
		t.Error("MatMulBT disagrees with explicit transpose")
	}
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
		{"NLP", dataset.NewsVocab, 48}, {"NLP", 48, 4},
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
func randnZeros(rows, cols int, zeros float64, rng *sim.RNG) *tensor.Matrix {
	m := tensor.Randn(rows, cols, 1, rng)
	for i := range m.Data {
		if rng.Float64() < zeros {
			m.Data[i] = 0
		}
	}
	return m
}

// newsPairs is the first batch rows of a seeded NLP training corpus as
// the model's first layer is fed them at the stride.
func newsPairs(news *dataset.Dataset, batch, stride int) *tensor.Matrix {
	p := tensor.New(batch, dataset.PairsWidth(dataset.NewsSeqLen, stride))
	for i := 0; i < batch; i++ {
		dataset.TokenPairs(p.Row(i), news.Tokens[i], stride)
	}
	return p
}

// bitEqual reports whether two matrices have the same shape and the
// same elements bit for bit — the sign of a zero included — counting
// any NaN equal to any other.
func bitEqual(a, b *tensor.Matrix) bool {
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
	out := tensor.Randn(3, 3, 1, rng)
	check := func(t *testing.T, x, y *tensor.Matrix) {
		t.Helper()
		for _, op := range kernelOps {
			a, b := op.operands(x, y)
			want := op.ref(a, b, x.Rows)
			if got := op.into(out, a, b, x.Rows); got != out || !bitEqual(got, want) {
				t.Fatalf("%sInto(%dx%dx%d) differs from the reference loop", op.name, x.Rows, x.Cols, y.Cols)
			}
			if op.wrap != nil && !bitEqual(op.wrap(a, b), want) {
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
	// a-vector — what the gather's groups of four leave over, within a
	// stretch and carried across two, and the pair rows of 0 to 5 pairs
	// and more — output widths that are not multiples of four (what BT's
	// groups of four rows leave over).
	t.Run("routines", func(t *testing.T) {
		for rows := 1; rows <= 5; rows++ {
			for _, inner := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 31, 32, 33, 35, 64, 70} {
				for _, n := range []int{1, 3, 4, 7, 10} {
					for _, c := range operandClasses {
						check(t, randnZeros(rows, inner, c.zeros, rng), tensor.Randn(inner, n, 1, rng))
					}
					// Row r holds exactly (r + inner) mod (inner+1)
					// non-zeros, scattered.
					x := tensor.New(rows, inner)
					for r := 0; r < rows; r++ {
						for _, k := range rng.PermInto(make([]int, inner))[:(r+inner)%(inner+1)] {
							x.Set(r, k, rng.NormFloat64())
						}
					}
					check(t, x, tensor.Randn(inner, n, 1, rng))
				}
			}
		}
	})

	t.Run("zero row and column", func(t *testing.T) {
		for _, rows := range []int{4, 5} {
			x := tensor.Randn(rows, 9, 1, rng)
			for k := 0; k < x.Cols; k++ {
				x.Set(1, k, 0)
			}
			for r := 0; r < rows; r++ {
				x.Set(r, 2, 0)
			}
			check(t, x, tensor.Randn(9, 6, 1, rng))
		}
	})

	// What sits in b opposite a zero never reaches the sum: not a NaN,
	// not an infinity, and not the sign of a −0. In the first matrix a
	// special is opposite zeros only, so every result is finite; in the
	// second some rows do multiply by it. Row 0 of b holds all four
	// opposite a zero column: the k every padding pair names.
	t.Run("specials opposite zeros", func(t *testing.T) {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
		for _, rows := range []int{1, 2, 3, 6} {
			for _, zeros := range []float64{0, 0.5} {
				x, y := randnZeros(rows, 11, zeros, rng), tensor.Randn(11, 5, 1, rng)
				for i, v := range specials {
					for _, k := range []int{0, 1 + 2*i} {
						for r := 0; r < rows; r++ {
							x.Set(r, k, 0)
						}
						y.Set(k, i, v)
					}
					y.Set(1+2*i, 4, v)
				}
				for _, op := range kernelOps {
					if op.name == "MatMulBT" { // BT skips nothing
						continue
					}
					a, b := op.operands(x, y)
					for _, v := range op.into(out, a, b, x.Rows).Data {
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
						a, b := op.operands(randnZeros(rows, inner, c.zeros, rng), tensor.Randn(inner, cols, 1, rng))
						if !bitEqual(op.into(out, a, b, rows), op.ref(a, b, rows)) {
							t.Fatalf("%s %sInto(%dx%dx%d, %s) differs from the reference loop", l.workload, op.name, rows, inner, cols, c.name)
						}
					}
				}
			}
		}
	})

	// The operand the Pairs ops exist for: the rows a seeded corpus
	// gives the NLP model's first layer, at every stride it tunes.
	t.Run("NLP corpus rows", func(t *testing.T) {
		news := dataset.NewNews(1).Train
		for stride := 1; stride <= 32; stride++ {
			for _, batch := range shippedBatches {
				a := newsPairs(news, batch, stride)
				for _, op := range kernelOps {
					if !strings.HasPrefix(op.name, "Pairs") {
						continue
					}
					rows, inner, cols := op.ofLayer(batch, dataset.NewsVocab, 48)
					b := tensor.Randn(inner, cols, 1, rng)
					if !bitEqual(op.into(out, a, b, rows), op.ref(a, b, rows)) {
						t.Fatalf("%sInto at stride %d, batch %d, differs from the reference loop", op.name, stride, batch)
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
		x, y := randnZeros(7, 13, c.zeros, rng), tensor.Randn(13, 6, 1, rng)
		for _, op := range kernelOps {
			a, b := op.operands(x, y)
			out := op.into(new(tensor.Matrix), a, b, x.Rows)
			if n := testing.AllocsPerRun(10, func() { op.into(out, a, b, x.Rows) }); n != 0 {
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
// the branch predictor cannot learn where one's zeros are. The Pairs ops
// run only where the model uses them: on the NLP token layer, over
// tokens.
func BenchmarkKernels(b *testing.B) {
	for _, op := range kernelOps {
		for _, l := range shippedLayers {
			for _, batch := range shippedBatches {
				rows, inner, cols := op.ofLayer(batch, l.in, l.out)
				for _, c := range operandClasses {
					if strings.HasPrefix(op.name, "Pairs") && (l.in != dataset.NewsVocab || l.workload != "NLP" || c.name != "tokens") {
						continue
					}
					b.Run(fmt.Sprintf("%s/%s-%dx%dx%d/%s", op.name, l.workload, rows, inner, cols, c.name), func(b *testing.B) {
						rng := sim.NewRNG(1)
						y := tensor.Randn(inner, cols, 1, rng)
						as := make([]*tensor.Matrix, 1+(1<<16)/(rows*inner))
						var bm *tensor.Matrix
						for i := range as {
							as[i], bm = op.operands(randnZeros(rows, inner, c.zeros, rng), y)
						}
						out := op.into(new(tensor.Matrix), as[0], bm, rows)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							op.into(out, as[i%len(as)], bm, rows)
						}
						b.ReportMetric(2*float64(rows)*float64(inner)*float64(cols)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
					})
				}
			}
		}
	}
}
