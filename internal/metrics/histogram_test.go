package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the log-linear bucketing
// contract: values below 8 ns get a bucket each, every power of two
// above splits into 8 equal sub-buckets, and a quantile reports the
// largest value of its bucket (≤ 12.5 % above the true value).
func TestHistogramBucketBoundaries(t *testing.T) {
	var h Histogram
	cases := []struct {
		v      time.Duration
		bucket int
	}{
		{0, 0},
		{1, 1},
		{7, 7},
		{8, 8},   // [8, 16) has width 1: [8, 8]
		{15, 15}, // [15, 15]
		{16, 16}, // [16, 32) splits in pairs: [16, 17]
		{17, 16},
		{18, 17},   // [18, 19]
		{31, 23},   // [30, 31]
		{32, 24},   // [32, 35]
		{1023, 63}, // [960, 1023]
		{1024, 64}, // [1024, 1151]
		{1151, 64},
		{1152, 65},                      // [1152, 1279]
		{time.Duration(1<<63 - 1), 487}, // the largest duration has the last bucket
		{-5 * time.Second, 0},           // negative clamps to zero
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count=%d want %d", s.Count, len(cases))
	}
	want := map[int]uint64{}
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, c := range s.Buckets {
		if c != want[i] {
			t.Fatalf("bucket %d: got %d want %d", i, c, want[i])
		}
	}

	// Buckets tile the durations: each starts one past the one before,
	// holds every value in it, and spans at most 1/8 of its lower bound.
	for i := 1; i < histBuckets; i++ {
		lo, hi := bucketLower(i), bucketUpper(i)
		if lo != bucketUpper(i-1)+1 || bucketOf(uint64(lo)) != i || bucketOf(uint64(hi)) != i {
			t.Fatalf("bucket %d [%d, %d] does not tile", i, lo, hi)
		}
		if hi-lo > lo/8 {
			t.Fatalf("bucket %d [%d, %d] is wider than 1/8 of its lower bound", i, lo, hi)
		}
	}

	// Quantile contract: a single value v reports its bucket's largest
	// value, between v and 1.125 v.
	for _, v := range []time.Duration{1500, 1100 * time.Microsecond, 2 * time.Millisecond, 170 * time.Millisecond} {
		var q Histogram
		q.Observe(v)
		if got := q.Snapshot().Quantile(0.5); got < v || got > v+v/8 {
			t.Fatalf("quantile of %v = %v, want in [%v, %v]", v, got, v, v+v/8)
		}
	}
	// The resolution the stage histograms need: 1.1 ms and 2.0 ms
	// certify→commit samples land buckets apart, not in one.
	var a, b Histogram
	a.Observe(1100 * time.Microsecond)
	b.Observe(2 * time.Millisecond)
	if a.Snapshot().Quantile(0.5) >= b.Snapshot().Quantile(0.5) {
		t.Fatal("1.1 ms and 2.0 ms report the same quantile")
	}

	// Empty histogram: everything zero.
	var e Histogram
	if s := e.Snapshot(); s.Quantile(0.99) != 0 || s.Mean() != 0 || s.Count != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestHistogramQuantileOrder(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	// True p50 is ~500µs; the bucket bound must cover it and stay
	// within the 12.5 % contract.
	if p50 < 500*time.Microsecond || p50 > 563*time.Microsecond {
		t.Fatalf("p50=%v want in [500µs, 563µs]", p50)
	}
	if mean := s.Mean(); mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Fatalf("mean=%v want ~500µs", mean)
	}
	if s.String() == "" || s.Dump() == "" {
		t.Fatal("empty renderings")
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many
// goroutines; no sample may be lost (race-clean by -race).
func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("lost samples: %d", s.Count)
	}
	var sum uint64
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Observe(time.Microsecond)
		b.Observe(time.Millisecond)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count=%d", s.Count)
	}
	if p99 := s.Quantile(0.99); p99 < time.Millisecond {
		t.Fatalf("merged p99=%v lost the slow half", p99)
	}
	if p25 := s.Quantile(0.25); p25 > 2*time.Microsecond {
		t.Fatalf("merged p25=%v lost the fast half", p25)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	if g.Value() != 42 {
		t.Fatalf("gauge=%d", g.Value())
	}
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("gauge=%d", g.Value())
	}
}

// TestRecordPathZeroAllocs is the CI-facing proof that the hot record
// path allocates nothing: histograms, counters, gauges, and flight
// notes are all amortized-zero.
func TestRecordPathZeroAllocs(t *testing.T) {
	var h Histogram
	var c Counter
	var g Gauge
	f := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(time.Microsecond)
		c.Add(1)
		g.Set(7)
		f.Note(EvCommit, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("record path allocates: %.1f allocs/op", n)
	}
}

// BenchmarkInstrumentationOverhead is the record-path cost the commit
// path pays per stage sample; CI asserts its allocs/op stays 0.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	var h Histogram
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
		c.Add(1)
	}
}
