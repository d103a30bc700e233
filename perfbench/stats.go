package main

import "sort"

// tailBeyond is how many samples must lie beyond a reported tail
// percentile.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still has at least
// tailBeyond samples above it, with that percentile. ok is false when
// there are too few samples for any.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := n - 1 - tailBeyond
	return s[k], 100 * float64(k+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
