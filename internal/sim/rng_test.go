package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverge: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values", same)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := NewRNG(7)
	f := func(uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(9)
	for n := 1; n < 50; n++ {
		for i := 0; i < 20; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRangeBounds(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range(-3,5) = %v out of range", v)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(41)
	const (
		lambda = 4.0
		n      = 100000
	)
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(lambda)
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.01 {
		t.Errorf("exponential mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestExpFloat64PanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ExpFloat64(0) did not panic")
		}
	}()
	NewRNG(1).ExpFloat64(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.PermInto(make([]int, n))
		if len(p) != n {
			t.Fatalf("PermInto(len %d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("PermInto(len %d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// refPerm is the permutation as RNG drew it before PermInto existed:
// its own slice, the same Fisher-Yates walk.
func refPerm(r *RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestPermIntoDrawsWhatPermDrew: over a dirty destination PermInto must
// produce the old Perm's permutation and leave the stream at the same
// position.
func TestPermIntoDrawsWhatPermDrew(t *testing.T) {
	for _, n := range []int{0, 1, 2, 97, 4096} {
		dst := make([]int, n)
		for seed := uint64(0); seed < 1000; seed++ {
			ref, into := NewRNG(seed), NewRNG(seed)
			want := refPerm(ref, n)
			for i := range dst {
				dst[i] = -1 - i // whatever the last use left behind
			}
			got := into.PermInto(dst)
			if len(got) != n || (n > 0 && &got[0] != &dst[0]) {
				t.Fatalf("PermInto(len %d) returned a slice of length %d that is not dst", n, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d n %d: element %d: PermInto %d, reference %d", seed, n, i, got[i], want[i])
				}
			}
			if into.Uint64() != ref.Uint64() {
				t.Fatalf("seed %d n %d: the stream is at a different position afterwards", seed, n)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(23)
	child := parent.Split()
	// Child stream should not equal the parent stream element-wise.
	equal := 0
	for i := 0; i < 32; i++ {
		if parent.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Errorf("%d/32 values equal between parent and split child", equal)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse 10-bucket chi-square check on Float64.
	r := NewRNG(29)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	expected := float64(n) / 10
	var chi2 float64
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; 99.9th percentile ~27.9.
	if chi2 > 27.9 {
		t.Errorf("chi-square = %v, distribution looks non-uniform", chi2)
	}
}
