package stat

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile of no samples = %v, want 0", got)
	}
}

// The highest reportable percentile is the one with at least ten samples
// beyond it.
func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{4000, 99}, {9999, 99}, {10000, 99.9}, {50000, 99.9}, {100000, 99.99},
	} {
		if got := HighestTail(c.n); got != c.want {
			t.Errorf("HighestTail(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

// Quartiles must be the ones Python's statistics.quantiles(xs, n=4) gives,
// because that is what the acceptance driver computes spreads with.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := Summarize([]float64{5, 1, 4, 2, 3})
	if s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 || s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Errorf("Summarize(1..5) = %+v, want quartiles 1.5/3/4.5", s)
	}
	s = Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("Summarize(1..10) = %+v, want quartiles 2.75/5.5/8.25", s)
	}
	if got := s.Spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %v, want 1", got)
	}
	if got, want := s.MedianSpread(), 1.25/math.Sqrt(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("MedianSpread = %v, want %v", got, want)
	}
	if got := s.RangeFrac(); math.Abs(got-9/5.5) > 1e-12 {
		t.Errorf("RangeFrac = %v, want %v", got, 9/5.5)
	}
	one := Summarize([]float64{7})
	if one.Q1 != 7 || one.Q3 != 7 || one.Spread() != 0 {
		t.Errorf("Summarize of one value = %+v, want it to be its own quartiles", one)
	}
	if (Summary{}).Spread() != 0 || Summarize(nil).N != 0 {
		t.Error("empty summary must have zero spread and count")
	}
}
