package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 100) of values by
// linear interpolation between the closest ranks — the same definition as
// numpy's default — so p50 of an even-sized sample is the mean of the two
// middle values. It returns NaN for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// median is the 50th percentile.
func median(values []float64) float64 { return percentile(values, 50) }

// quartiles returns the three cut points that divide values into four
// groups, with the method of Python's statistics.quantiles(values, n=4)
// (its default, "exclusive"), line for line: the cut at position
// i*(len+1)/4 of the sorted data, interpolated between neighbours, with
// the lower neighbour clamped to 1..len-1. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relativeSpread is the interquartile distance of values as a share of
// their median: the steadiness figure the benchmark's bounds are checked
// against.
func relativeSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
