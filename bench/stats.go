package main

import (
	"math"
	"slices"
)

// number is what the harness takes quantiles of: latencies kept as
// uint32 nanoseconds (serving) or float64 (job seconds, metric values).
type number interface{ ~uint32 | ~float64 }

// quantile returns the q-quantile (0..1) of an ascending-sorted slice,
// interpolating linearly between neighbours (the "type 7" estimate
// Python's statistics.quantiles(method="inclusive") and numpy use). It
// is 0 for an empty slice.
func quantile[T number](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[hi])*frac
}

// median sorts a copy of xs and returns its median.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// tailLadder is the percentiles a tail is looked for among.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest percentile of tailLadder that
// still has at least ten of n samples beyond it — the highest tail a
// run of that size can report without it being one outlier — or 0 when
// even the median has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 { // 100*(1-0.9) is 9.999… in floating point
			best = p
		}
	}
	return best
}

// spread is the distance between the first and third quartile of xs as
// a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method): the
// figure the benchmark's acceptance rule is written in.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	exclusive := func(k int) float64 { // k-th quartile, k in 1..3
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := exclusive(2)
	if med == 0 {
		return 0
	}
	return (exclusive(3) - exclusive(1)) / math.Abs(med)
}
