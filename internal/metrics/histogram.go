package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// Bucketing is log-linear (HDR-style): each power of two is split into
// subBuckets linear sub-buckets, so a bucket spans at most 1/subBuckets
// of its lower bound. Values below subBuckets nanoseconds get a bucket
// each (bucket v holds exactly v); a value v ≥ subBuckets with top bit
// e lands in bucket (e−subBits)·subBuckets + (v >> (e−subBits)), whose
// last term is v's top subBits+1 bits, in [subBuckets, 2·subBuckets).
// The largest time.Duration has e = 62, which fixes histBuckets: every
// possible duration has a bucket, so recording needs no range check
// beyond the negative clamp.
const (
	subBits     = 3
	subBuckets  = 1 << subBits
	histBuckets = (62-subBits)*subBuckets + 2*subBuckets
)

// bucketOf returns the bucket index of a non-negative value.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return (e-subBits)*subBuckets + int(v>>(e-subBits))
}

// Histogram is a fixed log-linear latency histogram. Record is one
// atomic add into a fixed array plus one into the running sum — no
// locks, no allocations — so it can sit on the per-block commit path
// of a GOMAXPROCS=1 bench run without showing up in the profile.
//
// The price of fixed buckets is resolution: a quantile is reported as
// the largest value its bucket holds, which overstates the true value
// by at most 1/8 (12.5 %) — fine enough to tell a 1.1 ms stage from a
// 2.0 ms one. The bench's reservoir LatencyRecorder still reports
// exact end-to-end percentiles.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
}

// Observe records one duration. Negative durations (clock steps
// between stamps) clamp to zero rather than corrupting a bucket index.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketOf(uint64(d))].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the current bucket counts. Concurrent Observes may
// straddle the copy; each observation is either fully in or at worst
// split between count and bucket by one — consistent enough for
// monitoring, which is the contract (the record path stays lock-free).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	s.SumNanos = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, safe to
// merge, reduce, and serialize.
type HistogramSnapshot struct {
	Buckets  [histBuckets]uint64 `json:"-"`
	Count    uint64              `json:"count"`
	SumNanos uint64              `json:"sum_ns"`
}

// Merge folds another snapshot into this one (cross-node aggregation).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
}

// bucketLower returns the smallest value bucket i holds, in
// nanoseconds.
func bucketLower(i int) time.Duration {
	if i < 2*subBuckets {
		return time.Duration(i)
	}
	shift := i/subBuckets - 1 // e − subBits
	return time.Duration(uint64(i%subBuckets+subBuckets) << uint(shift))
}

// bucketUpper returns the largest value bucket i holds, in nanoseconds
// (bucket 0 holds only zeros).
func bucketUpper(i int) time.Duration {
	if i == histBuckets-1 {
		return time.Duration(1<<63 - 1)
	}
	return bucketLower(i+1) - 1
}

// Quantile returns the largest value of the bucket containing the p-th
// (0..1) observation — an overestimate by at most 12.5 %. Zero if
// empty.
func (s HistogramSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(s.Count-1))
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if c > 0 && seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Mean returns the exact mean of the observations (the sum is kept in
// full resolution alongside the buckets).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50≤%v p99≤%v",
		s.Count, s.Mean().Round(time.Microsecond),
		s.Quantile(0.50).Round(time.Microsecond), s.Quantile(0.99).Round(time.Microsecond))
}

// Dump renders the non-empty buckets as one line per bucket, for the
// debug listener's text view.
func (s HistogramSnapshot) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.String())
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "  [%12v, %12v] %d\n", bucketLower(i), bucketUpper(i), c)
	}
	return b.String()
}

// Gauge is a last-value-wins instrument for level measurements
// (queue depths, batch sizes, bytes per flush). Atomic and
// allocation-free like Histogram.
type Gauge struct{ v atomic.Int64 }

// Set stores the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the current level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }
