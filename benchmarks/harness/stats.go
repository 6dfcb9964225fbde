// Package harness holds what the end-to-end driver (benchmarks/e2e) and the
// traced in-process run (benchmarks/layers) share: seeded workloads, the
// flat-text oracle, percentile arithmetic, the span tree and the report
// format. It imports only the standard library, so refactors under
// internal/ cannot break the end-to-end benchmark.
package harness

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. It returns 0 for an empty slice; xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median is the middle sample, or the mean of the two middle samples.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Sample is one timed operation: when it completed, as an offset into the
// timed window in seconds, and how long it took in milliseconds.
type Sample struct {
	At float64
	Ms float64
}

// SlicePercentile cuts the window [0, window) into slices equal parts,
// takes the p-th percentile of each part's samples and returns the median of
// those, so that one noisy-neighbour burst decides at most one slice and not
// the run. Slices without samples are left out.
func SlicePercentile(samples []Sample, window float64, slices int, p float64) float64 {
	if slices < 1 || window <= 0 {
		return 0
	}
	parts := make([][]float64, slices)
	for _, s := range samples {
		i := int(s.At / window * float64(slices))
		if i < 0 {
			i = 0
		}
		if i >= slices {
			i = slices - 1
		}
		parts[i] = append(parts[i], s.Ms)
	}
	var per []float64
	for _, part := range parts {
		if len(part) > 0 {
			per = append(per, Percentile(part, p))
		}
	}
	return Median(per)
}

// Div is a / b, and 0 where b is 0: a run in which nothing succeeded still
// has to print its result.
func Div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// GeoMean is the geometric mean of the positive values in xs.
func GeoMean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Quartiles returns the first and third quartile of xs by the same
// exclusive method as Python's statistics.quantiles(xs, n=4), which the
// benchmark contract names for the spread of a metric over repeated runs.
func Quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// position i*(n+1)/4, 1-based, interpolated and clamped
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles of xs as a share of their
// median — the steadiness figure the contract compares with a metric's bound.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
