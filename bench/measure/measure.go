// Package measure holds the benchmark's arithmetic — which percentile a
// sample supports, a rate as the median of per-second buckets, quartile
// spread across repeated runs — and the process counters (CPU time, heap
// allocations, peak resident set) both roles read around a window.
package measure

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/cercs/iqrudp/internal/hist"
	"github.com/cercs/iqrudp/internal/stats"
)

// sample loads v into the repository's exact-quantile sample (linear
// interpolation between closest ranks).
func sample(v []float64) *stats.Sample {
	var s stats.Sample
	for _, x := range v {
		s.Add(x)
	}
	return &s
}

// Median returns the median of v (0 when empty).
func Median(v []float64) float64 { return sample(v).Median() }

// HighestPercentile returns the highest of the usual reporting percentiles
// that still has at least ten of n samples beyond it, with 0.5 as the floor:
// p99 needs 1 000 samples, p99.9 needs 10 000.
func HighestPercentile(n int) float64 {
	best := 0.5
	// q = 1 − 1/per, kept as integers so that n = 100 has exactly ten
	// samples beyond p90.
	for _, c := range []struct {
		q   float64
		per int // one sample in `per` lies beyond q
	}{{0.9, 10}, {0.95, 20}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}} {
		if n >= 10*c.per {
			best = c.q
		}
	}
	return best
}

// Timing summarises a latency sample.
type Timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"` // 0 when fewer than ten samples lie beyond p99
	HighQ float64 `json:"high_q"`
	HighV float64 `json:"high_v"` // value at HighQ
}

// Summarise reduces samples (any order) to a Timing.
func Summarise(samples []float64) Timing {
	t := Timing{N: len(samples)}
	if t.N == 0 {
		return t
	}
	s := sample(samples)
	t.P50 = s.Median()
	t.HighQ = HighestPercentile(t.N)
	t.HighV = s.Quantile(t.HighQ)
	if t.HighQ >= 0.99 {
		t.P99 = s.Quantile(0.99)
	}
	return t
}

// Buckets counts events per whole second of a window that starts at Start.
// It is not safe for concurrent use.
type Buckets struct {
	Start time.Time
	N     []uint64
}

// NewBuckets covers a window of up to seconds seconds.
func NewBuckets(start time.Time, seconds int) *Buckets {
	return &Buckets{Start: start, N: make([]uint64, seconds)}
}

// Add counts n events at instant at; events outside the window are dropped.
func (b *Buckets) Add(at time.Time, n uint64) {
	d := at.Sub(b.Start)
	if i := int(d / time.Second); d >= 0 && i < len(b.N) {
		b.N[i] += n
	}
}

// MedianRate is the median of the per-second counts over the first whole
// `seconds` buckets: one stalled second moves it by at most one rank.
func MedianRate(counts []uint64, seconds int) float64 {
	if seconds > len(counts) {
		seconds = len(counts)
	}
	v := make([]float64, seconds)
	for i := range v {
		v[i] = float64(counts[i])
	}
	return Median(v)
}

// Spread is the repeatability of one metric over repeated runs.
type Spread struct {
	Median, Q1, Q3 float64
	// Rel is (Q3−Q1)/|Median|, the figure the benchmark's bounds are set from.
	Rel float64
}

// SpreadOf computes quartiles the way Python's statistics.quantiles(v, n=4)
// does (the "exclusive" method: rank p·(n+1)), since that is what judges the
// committed bounds.
func SpreadOf(v []float64) Spread {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return Spread{}
	}
	excl := func(p float64) float64 {
		if n == 1 {
			return s[0]
		}
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	sp := Spread{Median: Median(s), Q1: excl(0.25), Q3: excl(0.75)}
	if sp.Median != 0 {
		sp.Rel = (sp.Q3 - sp.Q1) / math.Abs(sp.Median)
	}
	return sp
}

// Proc is a snapshot of this process's cumulative counters.
type Proc struct {
	CPU     time.Duration `json:"cpu_ns"` // user + system
	Mallocs uint64        `json:"mallocs"`
}

// ReadProc snapshots CPU time and heap allocation count. It stops the world
// briefly (runtime.ReadMemStats), so call it at window edges only.
func ReadProc() Proc {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Proc{
		CPU:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		Mallocs: ms.Mallocs,
	}
}

// Sub returns the counters accumulated since before.
func (p Proc) Sub(before Proc) Proc {
	return Proc{CPU: p.CPU - before.CPU, Mallocs: p.Mallocs - before.Mallocs}
}

// CPUTime is this process's user + system CPU time so far. Unlike ReadProc
// it does not stop the world, so it can be sampled inside a window.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Ticker samples this process once a second through a window: CPU time
// spent in each whole second, resident set at each tick, and whatever else
// the owner's hook reads.
type Ticker struct {
	stop, done chan struct{}
	CPU        []float64 // nanoseconds of CPU in second i
	RSSMB      []float64 // resident set at the end of second i
}

// StartTicker begins sampling; the window's second 0 starts now. each, when
// not nil, runs on the sampler's goroutine at every tick.
func StartTicker(each func()) *Ticker {
	t := &Ticker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last := CPUTime()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			now := CPUTime()
			t.CPU = append(t.CPU, float64(now-last))
			t.RSSMB = append(t.RSSMB, RSSMB())
			last = now
			if each != nil {
				each()
			}
		}
	}()
	return t
}

// Stop ends sampling and waits for the sampler; the slices are then safe
// to read.
func (t *Ticker) Stop() {
	close(t.stop)
	<-t.done
}

// MedianRatio is the median over seconds of num[i]/den[i], skipping seconds
// in which den is 0: a per-event cost that one disturbed second cannot move.
func MedianRatio(num []float64, den []uint64) float64 {
	var r []float64
	for i := 0; i < len(num) && i < len(den); i++ {
		if den[i] > 0 {
			r = append(r, num[i]/float64(den[i]))
		}
	}
	return Median(r)
}

// statusField returns the value of one "Key:\tvalue" line of
// /proc/self/status ("" when absent or unreadable, as off Linux).
func statusField(key string) string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// PeakRSSMB is this process's peak resident set (VmHWM) in MB, 0 if unknown.
func PeakRSSMB() float64 { return statusMB("VmHWM") }

// RSSMB is this process's resident set (VmRSS) in MB, 0 if unknown.
func RSSMB() float64 { return statusMB("VmRSS") }

func statusMB(key string) float64 {
	f := strings.Fields(statusField(key))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1000
}

// AllowedCPUs lists the CPUs this process may run on (Cpus_allowed_list),
// or nil if that cannot be read.
func AllowedCPUs() []int { return parseCPUList(statusField("Cpus_allowed_list")) }

// parseCPUList expands "0-2,5" to [0 1 2 5]; malformed input gives nil.
func parseCPUList(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return nil
			}
		}
		for c := a; c <= b; c++ {
			out = append(out, c)
		}
	}
	return out
}

// HistWindowQuantile is the q-quantile, in the histogram's exported unit, of
// what the named histogram recorded between two cumulative snapshot sets
// (0 when it recorded nothing).
func HistWindowQuantile(before, after []hist.Snapshot, name string, q float64) float64 {
	find := func(set []hist.Snapshot) *hist.Snapshot {
		for i := range set {
			if set[i].Name == name {
				return &set[i]
			}
		}
		return nil
	}
	b := find(after)
	if b == nil {
		return 0
	}
	d := *b
	d.Counts = append([]uint64(nil), b.Counts...)
	if a := find(before); a != nil && len(a.Counts) == len(d.Counts) {
		d.Count -= a.Count
		d.Sum -= a.Sum
		for i, c := range a.Counts {
			d.Counts[i] -= c
		}
	}
	return d.Quantile(q) * d.Unit.Scale()
}
