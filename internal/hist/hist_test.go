package hist

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/cercs/iqrudp/internal/stats"
)

// TestBucketIndexContiguous proves the log-linear index is monotone and
// gap-free: walking v upward never skips or revisits a bucket, and the
// low/high inverses agree with the forward map.
func TestBucketIndexContiguous(t *testing.T) {
	prev := -1
	for v := uint64(0); v < 1<<16; v++ {
		idx := bucketIndex(v)
		if idx != prev && idx != prev+1 {
			t.Fatalf("bucketIndex(%d) = %d, previous %d: not contiguous", v, idx, prev)
		}
		if v < bucketLow(idx) || v > bucketHigh(idx) {
			t.Fatalf("v=%d outside its bucket %d range [%d,%d]", v, idx, bucketLow(idx), bucketHigh(idx))
		}
		prev = idx
	}
	// Spot-check bucket width: relative width must stay ≤ 12.5%.
	for _, v := range []uint64{16, 100, 1e4, 1e7, 1e10, 1e13} {
		idx := bucketIndex(v)
		lo, hi := bucketLow(idx), bucketHigh(idx)
		if w := float64(hi-lo+1) / float64(lo); w > 0.125+1e-9 {
			t.Errorf("bucket %d ([%d,%d]) relative width %.4f > 12.5%%", idx, lo, hi, w)
		}
	}
}

// TestQuantileErrorBound drives random workloads through a histogram and
// an exact oracle (stats.Sample) and asserts the recorded quantiles stay
// within the log-linear layout's error bound (12.5% bucket width, plus a
// little slack for rank interpolation differences).
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workloads := []struct {
		name string
		gen  func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1_000_000) }},
		{"exponential", func() int64 { return int64(rng.ExpFloat64() * 50_000) }},
		{"lognormal", func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 10)) }},
		{"bimodal", func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(100_000)
			}
			return 1_000 + rng.Int63n(500)
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			h := New(MetricRTT, Seconds, uint64(time.Minute))
			var exact stats.Sample
			for i := 0; i < 20_000; i++ {
				v := w.gen()
				h.Record(v)
				exact.Add(float64(v))
			}
			s := h.Snapshot()
			if s.Count != uint64(exact.N()) {
				t.Fatalf("count %d, want %d", s.Count, exact.N())
			}
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				got, want := s.Quantile(q), exact.Quantile(q)
				rel := math.Abs(got-want) / math.Max(want, 1)
				if rel > 0.13 && math.Abs(got-want) > 2 {
					t.Errorf("q=%g: hist %.1f vs exact %.1f (rel err %.4f > 13%%)", q, got, want, rel)
				}
			}
			if got, want := s.Mean(), exact.Mean(); math.Abs(got-want) > math.Max(want, 1)*0.001+1 {
				t.Errorf("mean %.2f vs exact %.2f", got, want)
			}
		})
	}
}

// TestRecordEdgeCases covers clamping: negatives go to zero, values above
// the configured max land in the overflow bucket with a clamped sum.
func TestRecordEdgeCases(t *testing.T) {
	h := New(MetricBacklog, Count, 1000)
	h.Record(-5)
	h.Record(0)
	h.Record(1 << 40) // far above max
	s := h.Snapshot()
	if s.Counts[0] != 2 {
		t.Errorf("zero bucket = %d, want 2 (negative clamps to 0)", s.Counts[0])
	}
	if over := s.Counts[len(s.Counts)-1]; over != 1 {
		t.Errorf("overflow bucket = %d, want 1", over)
	}
	if s.Sum != 1000 {
		t.Errorf("sum = %d, want 1000 (overflow clamps sum to max)", s.Sum)
	}
	if s.Upper(len(s.Counts)-1) != math.MaxUint64 {
		t.Errorf("overflow upper bound should be MaxUint64")
	}
	if q := s.Quantile(1); q != 1000 {
		t.Errorf("p100 with overflow = %g, want clamp to 1000", q)
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines while a
// reader snapshots it — the race detector validates the lock-free claim,
// and the final count must be exact.
func TestConcurrentRecord(t *testing.T) {
	const (
		workers = 8
		perW    = 10_000
	)
	h := NewLatency(MetricAckDelay)
	done := make(chan struct{})
	go func() { // concurrent reader
		for {
			select {
			case <-done:
				return
			default:
				s := h.Snapshot()
				if s.Count > workers*perW {
					panic("snapshot overcounted")
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				h.Record(rng.Int63n(1_000_000))
			}
		}(int64(w))
	}
	wg.Wait()
	close(done)
	if s := h.Snapshot(); s.Count != workers*perW {
		t.Fatalf("count = %d, want %d", s.Count, workers*perW)
	}
}

// TestMergeByName checks that same-metric snapshots add and distinct
// metrics stay separate, sorted by name.
func TestMergeByName(t *testing.T) {
	a, b := NewLatency(MetricRTT), NewLatency(MetricRTT)
	c := NewBatch(MetricRxBatch)
	for i := int64(0); i < 100; i++ {
		a.Record(i * 100)
		b.Record(i * 200)
		c.Record(i % 32)
	}
	merged := MergeByName([]Snapshot{a.Snapshot(), c.Snapshot(), b.Snapshot()})
	if len(merged) != 2 {
		t.Fatalf("merged %d metrics, want 2", len(merged))
	}
	if merged[0].Name != MetricRTT || merged[1].Name != MetricRxBatch {
		t.Fatalf("merge order %q, %q: want sorted by name", merged[0].Name, merged[1].Name)
	}
	if merged[0].Count != 200 {
		t.Errorf("merged rtt count = %d, want 200", merged[0].Count)
	}
	wantSum := a.Snapshot().Sum + b.Snapshot().Sum
	if merged[0].Sum != wantSum {
		t.Errorf("merged rtt sum = %d, want %d", merged[0].Sum, wantSum)
	}
	// Merge must not alias the source slices.
	before := merged[0].Counts[bucketIndex(100)]
	a.Record(100)
	if merged[0].Counts[bucketIndex(100)] != before {
		t.Error("merged snapshot aliases live histogram storage")
	}
}

// TestFoldMatchesMergeByName checks that folding sources one histogram at
// a time into an archive gives what MergeByName gives for the archive plus
// the sources' snapshots, inserting new metrics in name order, that a fold
// copies rather than aliases, and that folding into a metric the archive
// already holds allocates nothing.
func TestFoldMatchesMergeByName(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var archive, merged []Snapshot
	for round := 0; round < 4; round++ {
		src := []*Hist{NewLatency(MetricRTT), NewLatency(MetricAckDelay), NewDepth(MetricBacklog)}
		if round == 2 {
			src = append(src, NewLatency(MetricDelivery)) // a metric first seen mid-way
		}
		for _, h := range src {
			for i := 0; i < 50; i++ {
				h.Record(rng.Int63n(int64(time.Second)))
			}
			archive = Fold(archive, h)
			merged = MergeByName(append(merged, h.Snapshot()))
		}
		if !reflect.DeepEqual(archive, merged) {
			t.Fatalf("round %d: folded archive differs from MergeByName", round)
		}
	}
	rtt := func(snaps []Snapshot) uint64 {
		return snaps[slices.IndexFunc(snaps, func(s Snapshot) bool { return s.Name == MetricRTT })].Count
	}
	h := NewLatency(MetricRTT)
	h.Record(5)
	archive = Fold(archive, h)
	h.Record(5)
	if got, want := rtt(archive), rtt(merged)+1; got != want {
		t.Fatalf("folded rtt count %d, want %d: the archive aliases the source", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { archive = Fold(archive, h) }); n != 0 {
		t.Fatalf("folding into a held metric allocates %.1f times, want 0", n)
	}
}

// TestStandardBucketCounts keeps the exported counter counts, which size
// histograms allocated with their owner, equal to what New allocates.
func TestStandardBucketCounts(t *testing.T) {
	if n := len(NewLatency(MetricRTT).counts); LatencyBuckets != n {
		t.Errorf("LatencyBuckets = %d, a latency histogram holds %d", LatencyBuckets, n)
	}
	if n := len(NewDepth(MetricBacklog).counts); DepthBuckets != n {
		t.Errorf("DepthBuckets = %d, a depth histogram holds %d", DepthBuckets, n)
	}
}

// TestSummaryUnits checks unit scaling: Seconds histograms record
// nanoseconds and summarise in seconds.
func TestSummaryUnits(t *testing.T) {
	h := NewLatency(MetricDelivery)
	for i := 0; i < 1000; i++ {
		h.RecordDur(100 * time.Millisecond)
	}
	sum := h.Snapshot().Summary()
	if sum.Name != MetricDelivery || sum.Unit != "seconds" || sum.Count != 1000 {
		t.Fatalf("summary header: %+v", sum)
	}
	if sum.P50 < 0.09 || sum.P50 > 0.12 {
		t.Errorf("p50 = %g s, want ≈0.1 s", sum.P50)
	}
	if sum.Mean < 0.09 || sum.Mean > 0.12 {
		t.Errorf("mean = %g s, want ≈0.1 s", sum.Mean)
	}
}

// TestRecordAllocs locks the zero-allocation hot-path claim.
func TestRecordAllocs(t *testing.T) {
	h := NewLatency(MetricRTT)
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Record allocates %v times per op, want 0", n)
	}
}
