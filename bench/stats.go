package main

import (
	"math"
	"slices"
	"time"

	"btpub/internal/stats"
)

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles taken as Python's statistics.quantiles(xs, n=4) takes
// them (exclusive method: position (n+1)·k/4 among the sorted values).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(n+1) * float64(k) / 4 // 1-based
		lo := int(math.Floor(pos))
		lo = min(max(lo, 1), n-1)
		frac := pos - float64(lo)
		return s[lo-1] + (s[lo]-s[lo-1])*frac
	}
	med := stats.Median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// ratio is a/b, 0 when b is 0 (an idle layer reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
