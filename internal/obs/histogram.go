package obs

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

// Gauge is an instantaneous int64 metric — a level, not a cumulative
// count: in-flight requests, active sessions, resident pages. It is
// safe for concurrent use and the zero value is ready. The
// distinction from Int matters for exposition: a Prometheus scrape
// renders an Int as a counter and a Gauge as a gauge.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative deltas lower it).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc and Dec move the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// String implements Var (and expvar.Var) as a JSON number.
func (g *Gauge) String() string { return strconv.FormatInt(g.v.Load(), 10) }

// histBuckets is the number of log2 buckets: bucket 0 holds the value
// 0 (and clamped negatives), bucket i >= 1 holds values v with
// bits.Len64(v) == i, i.e. 2^(i-1) <= v <= 2^i - 1. Every int64 value
// lands in exactly one bucket.
const histBuckets = 65

// Histogram is a lock-free log-bucketed distribution of int64
// observations: request latencies in nanoseconds, pages read per
// query. Observe is a handful of atomic adds — no locks, no
// allocation — so it belongs on hot paths; Snapshot reads a coherent-
// enough view for monitoring (buckets are read individually, so a
// snapshot racing concurrent Observes may be off by the observations
// in flight, never torn within one counter).
//
// Buckets are powers of two, which bounds the relative quantile error
// at 2x worst case; Snapshot interpolates linearly inside a bucket,
// and the exact maximum is tracked separately so the tail is never
// under-reported. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its log2 bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return (int64(1) << i) - 1
}

// bucketLower is the smallest value bucket i can hold.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		// 1<<63 overflows int64; the top bucket's range is pinned to
		// its upper bound so the exposition never emits it as a
		// spurious below-max boundary.
		return math.MaxInt64
	}
	return int64(1) << (i - 1)
}

// Observe records one value. Negative values clamp to zero. Safe for
// concurrent use; allocation-free.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistSnapshot is one consistent-enough reading of a Histogram: total
// count and sum, the exact maximum, and the per-bucket counts the
// quantile estimates are computed from.
type HistSnapshot struct {
	Count, Sum, Max int64
	Buckets         [histBuckets]int64
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucketed
// counts: it walks to the bucket containing the target rank and
// interpolates linearly inside it, clamping the top to the exact
// observed maximum. Returns 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			if hi > s.Max {
				hi = s.Max // the top bucket cannot exceed the exact max
			}
			if hi <= lo {
				return lo
			}
			frac := (rank - seen) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += float64(c)
	}
	return s.Max
}

// String implements Var (and expvar.Var) as a JSON object carrying
// the summary statistics a dashboard wants at a glance.
func (h *Histogram) String() string {
	s := h.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, `{"count": %d, "sum": %d, "max": %d, "p50": %d, "p95": %d, "p99": %d}`,
		s.Count, s.Sum, s.Max, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
	return b.String()
}
