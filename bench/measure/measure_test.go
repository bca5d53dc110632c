package measure

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	}
	for _, c := range cases {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarise(t *testing.T) {
	small := make([]float64, 900)
	for i := range small {
		small[i] = float64(900 - i) // unsorted on purpose
	}
	s := Summarise(small)
	if s.N != 900 || s.HighQ != 0.95 || s.P99 != 0 {
		t.Errorf("900 samples: %+v, want p95 as the highest percentile and no p99", s)
	}
	if math.Abs(s.P50-450.5) > 1e-9 {
		t.Errorf("p50 = %v, want 450.5", s.P50)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i)
	}
	if b := Summarise(big); b.HighQ != 0.99 || math.Abs(b.P99-1979.01) > 1e-6 {
		t.Errorf("2000 samples: %+v, want p99 = 1979.01", b)
	}
	if z := Summarise(nil); z != (Timing{}) {
		t.Errorf("no samples: %+v, want zero", z)
	}
}

func TestMedianRateShrugsOffOneStalledSecond(t *testing.T) {
	start := time.Unix(1000, 0)
	b := NewBuckets(start, 5)
	for sec, n := range []uint64{100, 101, 0, 99, 100} { // third second stalled
		b.Add(start.Add(time.Duration(sec)*time.Second+time.Millisecond), n)
	}
	b.Add(start.Add(-time.Millisecond), 7) // before the window
	b.Add(start.Add(5*time.Second), 7)     // after it
	if got := MedianRate(b.N, 5); got != 100 {
		t.Errorf("median rate = %v, want 100 (mean would be 80)", got)
	}
	if got := MedianRate(b.N, 2); got != 100.5 {
		t.Errorf("median over the first two seconds = %v, want 100.5", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// returns, because that is what the committed bounds are judged with.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	s := SpreadOf([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if s.Q1 != 2.75 || s.Q3 != 8.25 || s.Median != 5.5 {
		t.Errorf("1..10: %+v, want Q1 2.75, median 5.5, Q3 8.25", s)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(s.Rel-want) > 1e-12 {
		t.Errorf("relative spread = %v, want %v", s.Rel, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	if s := SpreadOf([]float64{2, 4, 4, 5, 9}); s.Q1 != 3 || s.Median != 4 || s.Q3 != 7 {
		t.Errorf("five values: %+v, want 3, 4, 7", s)
	}
	if s := SpreadOf([]float64{3}); s.Q1 != 3 || s.Q3 != 3 || s.Rel != 0 {
		t.Errorf("one value: %+v", s)
	}
}

func TestParseCPUList(t *testing.T) {
	cases := map[string][]int{
		"0-1":     {0, 1},
		"0-2,5":   {0, 1, 2, 5},
		"3":       {3},
		"":        nil,
		"1-x":     nil,
		"2-1":     nil,
		"0,2-3,7": {0, 2, 3, 7},
	}
	for in, want := range cases {
		if got := parseCPUList(in); !reflect.DeepEqual(got, want) {
			t.Errorf("parseCPUList(%q) = %v, want %v", in, got, want)
		}
	}
}
