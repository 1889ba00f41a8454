package main

import (
	"math"
	"slices"
	"time"
)

// metric is one named measurement; N is the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// samples collects durations of one kind of operation.
type samples []time.Duration

func (s *samples) add(d time.Duration) { *s = append(*s, d) }

// in converts the samples to float64 in the given unit (time.Second,
// time.Millisecond, time.Microsecond).
func (s samples) in(unit time.Duration) []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailCandidates are the percentiles a report may quote beside a median.
var tailCandidates = []float64{0.75, 0.90, 0.95, 0.99, 0.999}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it; ok is false when even p75 has fewer.
func tailPercentile(n int) (q float64, ok bool) {
	for _, c := range tailCandidates {
		if float64(n)*(1-c) >= 10-1e-9 {
			q, ok = c, true
		}
	}
	return q, ok
}

// spread is the interquartile range of xs over its median, computed the
// way Python's statistics.quantiles(xs, n=4) places the quartiles
// (exclusive method), which is what the acceptance check uses.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(len(s)+1))/4 - 1
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, len(s)-2))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}
