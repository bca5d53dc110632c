// Package hist provides the fixed-size, log-bucketed, atomic histograms
// behind the transport's distribution metrics (RTT, delivery latency, queue
// depth, batch size). The design goals, in order:
//
//  1. Zero-allocation, lock-free Record on the hot path: two atomic adds,
//     no branches that can allocate, safe from any goroutine.
//  2. Bounded, predictable memory: bucket boundaries are a pure function of
//     the configured maximum, laid out log-linearly (HDR-style) so relative
//     bucket width never exceeds 12.5%.
//  3. Mergeable snapshots: per-connection and per-shard histograms of the
//     same metric merge by simple vector addition, so the exporter can
//     present one fleet-wide distribution.
//
// Bucket layout: values below 16 map to their own bucket (exact); above
// that, each power-of-two octave is split into 8 linear sub-buckets
// (subBits = 3), i.e. bucket index
//
//	idx = ((exp-3) << 3) + ((v >> (exp-3)) & 7) + 8    where exp = floor(log2 v)
//
// which is contiguous across octaves and gives ≤ 2^(exp-3)-wide buckets —
// a worst-case relative quantile error of 12.5%. Values above the
// configured maximum land in a final overflow bucket (and are clamped in
// the sum), so the array never grows.
package hist

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// subBits is the number of linear sub-bucket bits per power-of-two octave.
const subBits = 3

// Unit describes how recorded raw values translate to exported numbers.
type Unit uint8

const (
	// Count exports raw recorded values unscaled (packets, messages, ...).
	Count Unit = iota
	// Seconds records nanoseconds and exports seconds (÷1e9).
	Seconds
)

// Scale returns the factor converting a raw recorded value into the
// exported unit.
func (u Unit) Scale() float64 {
	if u == Seconds {
		return 1e-9
	}
	return 1
}

func (u Unit) String() string {
	if u == Seconds {
		return "seconds"
	}
	return "count"
}

// bucketIndex maps a raw value onto its log-linear bucket.
func bucketIndex(v uint64) int {
	if v < 1<<(subBits+1) {
		return int(v) // identity region: exact buckets 0..15
	}
	exp := bits.Len64(v) - 1 // position of the top set bit, ≥ subBits+1
	return ((exp - subBits) << subBits) + int((v>>(exp-subBits))&(1<<subBits-1)) + (1 << subBits)
}

// bucketLow returns the smallest raw value mapping to bucket idx.
func bucketLow(idx int) uint64 {
	if idx < 1<<(subBits+1) {
		return uint64(idx)
	}
	shift := uint((idx - 1<<subBits) >> subBits)
	k := uint64((idx - 1<<subBits) & (1<<subBits - 1))
	return (1<<subBits + k) << shift
}

// bucketHigh returns the largest raw value mapping to bucket idx.
func bucketHigh(idx int) uint64 {
	if idx < 1<<(subBits+1) {
		return uint64(idx)
	}
	shift := uint((idx - 1<<subBits) >> subBits)
	return bucketLow(idx) + 1<<shift - 1
}

// Hist is a lock-free log-bucketed histogram. Record never allocates and
// may be called concurrently from any goroutine; Snapshot may race with
// recording and returns a self-consistent-enough view (counts and sum are
// read with atomics, so each is exact at some instant).
type Hist struct {
	name   string
	unit   Unit
	limit  uint64 // largest value recorded exactly; above → overflow bucket
	sum    atomic.Uint64
	counts []atomic.Uint64
}

// New returns a histogram for metric name (one of the Metric* constants)
// covering [0, max] with an overflow bucket above. A max of 0 selects a
// one-bucket degenerate histogram; callers should use the New*Hist
// constructors for the standard metrics.
func New(name string, unit Unit, max uint64) *Hist {
	h := new(Hist)
	h.init(name, unit, max, make([]atomic.Uint64, buckets(max)))
	return h
}

// buckets is the number of counters a histogram covering [0, max] holds:
// through the last in-range bucket, plus the overflow bucket.
func buckets(max uint64) int { return bucketIndex(max) + 2 }

// init makes h, the zero Hist, a histogram like New(name, unit, max)
// recording into the front of counts, and returns the rest of counts.
func (h *Hist) init(name string, unit Unit, max uint64, counts []atomic.Uint64) []atomic.Uint64 {
	n := buckets(max)
	h.name, h.unit, h.limit, h.counts = name, unit, max, counts[:n:n]
	return counts[n:]
}

// Name returns the metric name this histogram records.
func (h *Hist) Name() string { return h.name }

// Record adds one observation of raw value v (nanoseconds for Seconds
// histograms). Negative values clamp to zero; values above the configured
// maximum land in the overflow bucket. Zero allocations, two atomic adds.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	uv := uint64(v)
	idx := bucketIndex(uv)
	if idx >= len(h.counts)-1 {
		idx = len(h.counts) - 1
		uv = h.limit
	}
	h.counts[idx].Add(1)
	h.sum.Add(uv)
}

// RecordDur records a duration on a Seconds histogram.
func (h *Hist) RecordDur(d time.Duration) { h.Record(int64(d)) }

// Snapshot copies the histogram's current state.
func (h *Hist) Snapshot() Snapshot {
	s := Snapshot{
		Name:   h.name,
		Unit:   h.unit,
		Limit:  h.limit,
		Sum:    h.sum.Load(),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Snapshot is a point-in-time copy of a histogram, mergeable with other
// snapshots of the same metric and serialisable to JSON.
type Snapshot struct {
	Name   string   `json:"name"`
	Unit   Unit     `json:"unit"`
	Limit  uint64   `json:"limit"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
	Counts []uint64 `json:"counts"`
}

// Merge adds other into s. Snapshots merge only when they describe the
// same metric with the same bucket layout; a mismatch is ignored (the
// caller grouped by name, so this only happens across version skew).
func (s *Snapshot) Merge(other Snapshot) {
	if s.Name != other.Name || s.Unit != other.Unit || len(s.Counts) != len(other.Counts) {
		return
	}
	s.Count += other.Count
	s.Sum += other.Sum
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
}

// Upper returns the inclusive upper bound of bucket i in raw units; the
// overflow bucket reports MaxUint64 (rendered as +Inf).
func (s Snapshot) Upper(i int) uint64 {
	if i == len(s.Counts)-1 {
		return math.MaxUint64
	}
	return bucketHigh(i)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) in raw units, linearly
// interpolated within the containing bucket. Returns 0 for an empty
// snapshot. Worst-case relative error is the bucket width, 12.5%.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if rank < cum+fc {
			low, high := float64(bucketLow(i)), float64(bucketHigh(i))
			if i == len(s.Counts)-1 {
				return float64(s.Limit) // overflow: all we know is "≥ limit"
			}
			frac := (rank - cum) / fc
			return low + frac*(high-low)
		}
		cum += fc
	}
	return float64(s.Limit)
}

// Mean returns the arithmetic mean in raw units (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Summary condenses a snapshot into the key quantiles in exported units
// (seconds for latency histograms) — the form carried by flight records
// and the introspection endpoint.
type Summary struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Summary computes the snapshot's summary in exported units.
func (s Snapshot) Summary() Summary {
	k := s.Unit.Scale()
	return Summary{
		Name:  s.Name,
		Unit:  s.Unit.String(),
		Count: s.Count,
		Mean:  s.Mean() * k,
		P50:   s.Quantile(0.50) * k,
		P90:   s.Quantile(0.90) * k,
		P99:   s.Quantile(0.99) * k,
		P999:  s.Quantile(0.999) * k,
	}
}

// Fold adds h's current state into snaps, a name-sorted set of distinct
// metrics as MergeByName returns, and returns the set: in place when the
// set holds h's metric (a layout mismatch is ignored, as in Merge), else by
// inserting a snapshot of h at its sorted position. Folding a source's
// histograms one by one into an archive gives what MergeByName gives for
// the archive plus the source's snapshots, without copying them first.
func Fold(snaps []Snapshot, h *Hist) []Snapshot {
	i, found := slices.BinarySearchFunc(snaps, h.name, func(s Snapshot, name string) int {
		return strings.Compare(s.Name, name)
	})
	if !found {
		return slices.Insert(snaps, i, h.Snapshot())
	}
	s := &snaps[i]
	if s.Unit != h.unit || len(s.Counts) != len(h.counts) {
		return snaps
	}
	s.Sum += h.sum.Load()
	for j := range h.counts {
		c := h.counts[j].Load()
		s.Counts[j] += c
		s.Count += c
	}
	return snaps
}

// MergeByName groups snapshots by metric name, merging duplicates, and
// returns them sorted by name — the exporter's scrape-time view over any
// number of per-connection and per-shard sources.
func MergeByName(snaps []Snapshot) []Snapshot {
	byName := make(map[string]int, len(snaps))
	var out []Snapshot
	for _, s := range snaps {
		if i, ok := byName[s.Name]; ok {
			out[i].Merge(s)
			continue
		}
		c := s
		c.Counts = append([]uint64(nil), s.Counts...)
		byName[s.Name] = len(out)
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
