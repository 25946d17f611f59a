package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity. Every summary it
// gives returns the number of values it was computed from, so no figure
// leaves the benchmark without its sample count.
type sample []float64

// median is the middle value, or the mean of the two middle values when
// the count is even. It is NaN for an empty sample.
func (s sample) median() (float64, int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0
	}
	v := s.sorted()
	if n%2 == 1 {
		return v[n/2], n
	}
	return (v[n/2-1] + v[n/2]) / 2, n
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100): the
// smallest value with at least p% of the sample at or below it. beyond
// is how many values lie above it, which says whether the tail the
// percentile describes rests on enough samples.
func (s sample) percentile(p float64) (v float64, n, beyond int) {
	n = len(s)
	if n == 0 || p <= 0 || p > 100 {
		return math.NaN(), n, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	sorted := s.sorted()
	return sorted[rank-1], n, n - rank
}

func (s sample) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

func (s sample) sorted() []float64 {
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	return v
}
