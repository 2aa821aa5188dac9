package main

import (
	"math"
	"sort"
	"time"
)

// Dist is a sample of durations or values with its percentiles. Every
// figure the benchmark prints carries its sample count, so a p99 over a
// few dozen samples cannot pass for a tail.
type Dist struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Quantile returns the nearest-rank q-quantile of v (sorted in place).
// An empty sample yields 0.
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(v) {
		sort.Float64s(v)
	}
	rank := int(math.Ceil(q*float64(len(v)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(v) {
		rank = len(v) - 1
	}
	return v[rank]
}

// Summarize returns the count, median, p99 and maximum of v, leaving v
// in its order.
func Summarize(v []float64) Dist {
	if len(v) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return Dist{N: len(s), P50: Quantile(s, 0.50), P99: Quantile(s, 0.99), Max: s[len(s)-1]}
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
