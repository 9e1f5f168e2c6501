package tensor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"edgetune/internal/sim"
)

func TestNewPanicsOnBadShape(t *testing.T) {
	tests := []struct{ r, c int }{{0, 1}, {1, 0}, {-1, 3}}
	for _, tt := range tests {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tt.r, tt.c)
				}
			}()
			New(tt.r, tt.c)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	if _, err := FromSlice(2, 3, []float64{1}); err == nil {
		t.Error("mismatched length did not error")
	}
	if _, err := FromSlice(0, 3, nil); err == nil {
		t.Error("zero rows did not error")
	}
}

func TestMatMulKnown(t *testing.T) {
	a, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want, _ := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// TestMatrixHeaderSize pins the layout of Matrix: every layer buffer,
// arena header and view is one, so each field costs every trial. One more
// pointer field (a side index of a row's non-zeros) raised what the
// default IC job allocates from 663.6 to 674.8 KB, +1.7 %.
func TestMatrixHeaderSize(t *testing.T) {
	if n := reflect.TypeOf(Matrix{}).Size(); n != 48 {
		t.Errorf("a Matrix is %d bytes, want 48", n)
	}
}

// Property: (A @ B) distributes over scalar multiplication.
func TestMatMulScalarProperty(t *testing.T) {
	rng := sim.NewRNG(5)
	f := func(seed uint16) bool {
		r := sim.NewRNG(uint64(seed))
		a := Randn(3, 4, 1, r)
		b := Randn(4, 2, 1, r)
		s := 1 + rng.Float64()
		left := MatMul(a, b)
		left.Scale(s)
		a2 := a.Clone()
		a2.Scale(s)
		right := MatMul(a2, b)
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAddRowVec(t *testing.T) {
	m, _ := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.AddRowVec([]float64{10, 20})
	want, _ := FromSlice(2, 2, []float64{11, 22, 13, 24})
	if !Equal(m, want, 0) {
		t.Errorf("AddRowVec = %v", m.Data)
	}
}

func TestAddAndScaleAndHadamard(t *testing.T) {
	a, _ := FromSlice(1, 3, []float64{1, 2, 3})
	b, _ := FromSlice(1, 3, []float64{4, 5, 6})
	a.Add(b)
	want, _ := FromSlice(1, 3, []float64{5, 7, 9})
	if !Equal(a, want, 0) {
		t.Errorf("Add = %v", a.Data)
	}
	a.Scale(2)
	want2, _ := FromSlice(1, 3, []float64{10, 14, 18})
	if !Equal(a, want2, 0) {
		t.Errorf("Scale = %v", a.Data)
	}
	a.Hadamard(b)
	want3, _ := FromSlice(1, 3, []float64{40, 70, 108})
	if !Equal(a, want3, 0) {
		t.Errorf("Hadamard = %v", a.Data)
	}
}

func TestColSums(t *testing.T) {
	m, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := m.ColSums()
	want := []float64{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ColSums[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m, _ := FromSlice(3, 3, []float64{0, 1, 0, 9, 2, 3, -5, -4, -6})
	got := m.ArgmaxRows()
	want := []int{1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ArgmaxRows[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := sim.NewRNG(3)
	m := Randn(10, 7, 5, rng)
	m.SoftmaxRows()
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d softmax sum = %v, want 1", i, sum)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m, _ := FromSlice(1, 3, []float64{1000, 1001, 1002})
	m.SoftmaxRows()
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax of large logits produced %v", v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := FromSlice(1, 2, []float64{3, 4})
	if got := m.FrobeniusNorm(); got != 5 {
		t.Errorf("FrobeniusNorm = %v, want 5", got)
	}
}

func TestEqualRejectsNaN(t *testing.T) {
	nan, _ := FromSlice(1, 2, []float64{1, math.NaN()})
	two, _ := FromSlice(1, 2, []float64{1, 2})
	if Equal(nan, two, 1e-9) || Equal(two, nan, 1e-9) || Equal(nan, nan, math.Inf(1)) {
		t.Error("Equal accepted a matrix holding a NaN")
	}
	if !Equal(two, two.Clone(), 0) {
		t.Error("Equal rejected identical matrices at eps 0")
	}
}

func TestRandnStd(t *testing.T) {
	rng := sim.NewRNG(99)
	m := Randn(100, 100, 0.5, rng)
	var sumSq float64
	for _, v := range m.Data {
		sumSq += v * v
	}
	std := math.Sqrt(sumSq / float64(len(m.Data)))
	if math.Abs(std-0.5) > 0.02 {
		t.Errorf("Randn std = %v, want ~0.5", std)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := sim.NewRNG(1)
	x := Randn(64, 64, 1, rng)
	y := Randn(64, 64, 1, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func TestResizeReusesStorage(t *testing.T) {
	m := New(4, 6)
	data := &m.Data[0]
	if m.Resize(2, 3); m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 || &m.Data[0] != data {
		t.Errorf("shrinking Resize gave %dx%d len %d, or moved the storage", m.Rows, m.Cols, len(m.Data))
	}
	if m.Resize(6, 4); len(m.Data) != 24 || &m.Data[0] != data {
		t.Error("growing back within capacity moved the storage")
	}
	if m.Resize(5, 5); len(m.Data) != 25 {
		t.Errorf("growing past capacity gave len %d, want 25", len(m.Data))
	}
}

func TestRowSliceIsAView(t *testing.T) {
	m, _ := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	v := m.RowSlice(nil, 1, 3)
	if v.Rows != 2 || v.Cols != 2 || v.At(0, 0) != 3 || v.At(1, 1) != 6 {
		t.Fatalf("RowSlice(1,3) = %dx%d %v", v.Rows, v.Cols, v.Data)
	}
	if v.Set(0, 0, 9); m.At(1, 0) != 9 {
		t.Error("RowSlice copied instead of sharing storage")
	}
}

func TestColSumsIntoOverwrites(t *testing.T) {
	m, _ := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if got := m.ColSumsInto([]float64{7, 7}); got[0] != 4 || got[1] != 6 {
		t.Errorf("ColSumsInto over a dirty slice = %v, want [4 6]", got)
	}
}
