package core

import "probe/internal/obs"

// QueryStats is the one statistics record of every query: a range
// search fills the search group, a join the join group, and every
// operation the buffer pool, physical I/O and durability groups of the
// work it did, traced or not. It is read off the operation's counts
// (StatsOf), each field from the counter paired with it in link. The
// probe package exports it as probe.QueryStats.
type QueryStats struct {
	// Range search.

	// DataPages is the number of distinct leaf pages touched: the
	// paper's "(data) pages accessed" metric.
	DataPages int
	// Seeks counts random accesses into the point sequence.
	Seeks int
	// Elements counts the box elements the merge consumed: those
	// strategy A materialized or strategy B generated, or strategy
	// C's pixels, one per in-box z its seek handed the merge.
	Elements int
	// Results is the number of points reported.
	Results int

	// Spatial join.

	// LeftItems and RightItems are the join input sizes in elements.
	LeftItems, RightItems int
	// RawPairs counts pairs before the deduplicating projection.
	RawPairs int
	// DistinctPairs counts pairs after it.
	DistinctPairs int

	// Buffer pool, attributed to this operation.

	PoolGets      uint64
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	// PoolWriteBacks is always 0: the pool writes no page back. The
	// field stays because the benchmark harness reads it.
	PoolWriteBacks uint64

	// Physical page I/O, attributed to this operation.

	PhysReads  uint64
	PhysWrites uint64

	// Durability, attributed to this operation (databases opened
	// with durability).

	// WALAppends and WALSyncs count write-ahead-log records appended
	// and group fsyncs issued while this operation ran.
	WALAppends uint64
	WALSyncs   uint64
	// PagesRecovered counts page images replayed from the log
	// (nonzero only on the span of a recovering Open).
	PagesRecovered uint64
	// ChecksumFailures counts reads that failed page verification
	// during this operation.
	ChecksumFailures uint64
}

// link is the one pairing of each field of s with the counter that
// counts it: it copies c into s if load is true, else s into c.
func (s *QueryStats) link(c *obs.Counts, load bool) {
	pair(&s.DataPages, &c[obs.DataPages], load)
	pair(&s.Seeks, &c[obs.Seeks], load)
	pair(&s.Elements, &c[obs.Elements], load)
	pair(&s.Results, &c[obs.Results], load)
	pair(&s.LeftItems, &c[obs.ItemsLeft], load)
	pair(&s.RightItems, &c[obs.ItemsRight], load)
	pair(&s.RawPairs, &c[obs.RawPairs], load)
	pair(&s.DistinctPairs, &c[obs.DistinctPairs], load)
	pair(&s.PoolGets, &c[obs.PoolGets], load)
	pair(&s.PoolHits, &c[obs.PoolHits], load)
	pair(&s.PoolMisses, &c[obs.PoolMisses], load)
	pair(&s.PoolEvictions, &c[obs.PoolEvictions], load)
	pair(&s.PoolWriteBacks, &c[obs.PoolWriteBacks], load)
	pair(&s.PhysReads, &c[obs.PhysReads], load)
	pair(&s.PhysWrites, &c[obs.PhysWrites], load)
	pair(&s.WALAppends, &c[obs.WALAppends], load)
	pair(&s.WALSyncs, &c[obs.WALSyncs], load)
	pair(&s.PagesRecovered, &c[obs.PagesRecovered], load)
	pair(&s.ChecksumFailures, &c[obs.ChecksumFailures], load)
}

func pair[T int | uint64](f *T, c *int64, load bool) {
	if load {
		*f = T(*c)
	} else {
		*c = int64(*f)
	}
}

// StatsOf reads an operation's counts into its QueryStats.
func StatsOf(c *obs.Counts) (s QueryStats) {
	s.link(c, true)
	return s
}

// CountsOf returns s as counts: each field at its counter, the others
// zero.
func CountsOf(s QueryStats) (c obs.Counts) {
	s.link(&c, false)
	return c
}

// Add sums every counter of o into s but Results, which each caller
// sets from the answer it returns: a statement's rows, a gather's
// merged points.
func (s *QueryStats) Add(o QueryStats) {
	a, b := CountsOf(*s), CountsOf(o)
	b[obs.Results] = 0
	for i := range a {
		a[i] += b[i]
	}
	*s = StatsOf(&a)
}

// Efficiency returns the paper's efficiency measure: how much
// relevant data was on each retrieved page, as results divided by
// retrieved capacity.
func (s QueryStats) Efficiency(leafCapacity int) float64 {
	if s.DataPages == 0 {
		return 0
	}
	return float64(s.Results) / float64(s.DataPages*leafCapacity)
}

// HitRate returns PoolHits/PoolGets, or 0 when the operation read no
// page.
func (s QueryStats) HitRate() float64 {
	if s.PoolGets == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(s.PoolGets)
}
