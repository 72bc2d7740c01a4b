// Package stat holds the benchmark's arithmetic: percentiles over latency
// samples, the "highest percentile with at least ten samples beyond it"
// rule, and the across-repetition summary (median, quartiles, spread) every
// reported metric carries.
package stat

import (
	"math"
	"slices"
)

// Percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func Percentile(sorted []int64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return float64(sorted[i])
}

// tails is the ladder of reportable percentiles, highest first, as parts
// per ten thousand.
var tails = []int{9999, 9990, 9900, 9000, 5000}

// HighestTail returns the highest percentile of the ladder p50 < p90 < p99
// < p99.9 < p99.99 that has at least ten of n samples beyond it. With fewer
// than twenty samples nothing qualifies and it returns 0: such a set
// supports no percentile at all.
func HighestTail(n int) float64 {
	for _, pp := range tails {
		if n*(10000-pp)/10000 >= 10 {
			return float64(pp) / 100
		}
	}
	return 0
}

// Summary describes one metric over repetitions.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Summarize computes the across-repetition summary. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the exclusive method), which is
// what the acceptance driver uses, so a spread printed here is the spread
// the driver computes. A single value is its own quartiles.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	out := Summary{N: len(s), Min: s[0], Max: s[len(s)-1]}
	out.Q1, out.Median, out.Q3 = quantile(s, 1), quantile(s, 2), quantile(s, 3)
	return out
}

// quantile is the i-th of the three quartile cut points of sorted s.
func quantile(s []float64, i int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// Spread is the interquartile distance as a share of the median; 0 when the
// median is 0.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// MedianSpread estimates the interquartile spread the median itself would
// show if the whole set of repetitions were run again, as a share of the
// median: 1.25*IQR/sqrt(n), the large-sample figure for a roughly normal
// metric. It is what a comparison of two medians has to beat, and is
// directly comparable with the spread the acceptance driver computes over
// repeated runs.
func (s Summary) MedianSpread() float64 {
	if s.N == 0 {
		return 0
	}
	return 1.25 * s.Spread() / math.Sqrt(float64(s.N))
}

// RangeFrac is (max-min)/median, the repetition spread reported as
// diag.rep_spread_frac.
func (s Summary) RangeFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Max - s.Min) / s.Median)
}

// Median of xs (0 when empty).
func Median(xs []float64) float64 { return Summarize(xs).Median }
