// Package metrics provides the small statistics toolkit the evaluation
// harness uses: percent error (Figure 15's metric), quantiles and
// box-and-whisker summaries.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// PercentError computes the paper's PE formula (§5.3):
// |empirical - estimated| / empirical × 100.
func PercentError(empirical, estimated float64) (float64, error) {
	if empirical == 0 {
		return 0, fmt.Errorf("metrics: empirical value is zero")
	}
	return math.Abs(empirical-estimated) / math.Abs(empirical) * 100, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear
// interpolation over the sorted sample. A NaN observation is rejected:
// NaN has no place in a total order, so its sorted position — and hence
// every quantile — would be unspecified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("metrics: quantile %v out of [0,1]", q)
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return 0, fmt.Errorf("metrics: quantile of sample containing NaN")
		}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1], nil
	}
	// Exact hit: return the sample directly. Interpolating here would
	// evaluate ±Inf×0 = NaN when the unused neighbour is infinite.
	if frac == 0 {
		return sorted[lo], nil
	}
	v := sorted[lo]*(1-frac) + sorted[lo+1]*frac
	if math.IsNaN(v) {
		// Only reachable by interpolating between -Inf and +Inf.
		return 0, fmt.Errorf("metrics: quantile %v interpolates between -Inf and +Inf", q)
	}
	return v, nil
}

// BoxStats is a box-and-whiskers summary (Figure 15's representation).
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// Box summarises a sample as box-and-whiskers statistics.
func Box(xs []float64) (BoxStats, error) {
	var b BoxStats
	if len(xs) == 0 {
		return b, fmt.Errorf("metrics: box stats of empty sample")
	}
	var err error
	if b.Min, err = Quantile(xs, 0); err != nil {
		return b, err
	}
	if b.Q1, err = Quantile(xs, 0.25); err != nil {
		return b, err
	}
	if b.Median, err = Quantile(xs, 0.5); err != nil {
		return b, err
	}
	if b.Q3, err = Quantile(xs, 0.75); err != nil {
		return b, err
	}
	b.Max, err = Quantile(xs, 1)
	return b, err
}

// String renders the summary in a compact single line.
func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f", b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// RelDiff returns (a-b)/b × 100, the signed percentage difference used
// by the Figure 14 overhead plots.
func RelDiff(a, b float64) (float64, error) {
	if b == 0 {
		return 0, fmt.Errorf("metrics: relative difference against zero")
	}
	return (a - b) / b * 100, nil
}
