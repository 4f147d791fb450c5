package core

// QueryStats is the one statistics record of every query: a range
// search fills the search group, a join the join group, and the
// buffer pool, physical I/O and durability groups are filled from a
// traced operation's span (untraced operations leave them zero rather
// than pay for attribution). The probe package exports it as
// probe.QueryStats.
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

	// Buffer pool, attributed to this operation (traced operations
	// only).

	PoolGets       uint64
	PoolHits       uint64
	PoolMisses     uint64
	PoolEvictions  uint64
	PoolWriteBacks uint64

	// Physical page I/O, attributed to this operation (traced
	// operations only).

	PhysReads  uint64
	PhysWrites uint64

	// Durability, attributed to this operation (databases opened
	// with durability; traced operations only).

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

// Add sums every counter of o into s but Results, which each caller
// sets from the answer it returns: a statement's rows, a gather's
// merged points.
func (s *QueryStats) Add(o QueryStats) {
	s.DataPages += o.DataPages
	s.Seeks += o.Seeks
	s.Elements += o.Elements
	s.LeftItems += o.LeftItems
	s.RightItems += o.RightItems
	s.RawPairs += o.RawPairs
	s.DistinctPairs += o.DistinctPairs
	s.PoolGets += o.PoolGets
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.PoolEvictions += o.PoolEvictions
	s.PoolWriteBacks += o.PoolWriteBacks
	s.PhysReads += o.PhysReads
	s.PhysWrites += o.PhysWrites
	s.WALAppends += o.WALAppends
	s.WALSyncs += o.WALSyncs
	s.PagesRecovered += o.PagesRecovered
	s.ChecksumFailures += o.ChecksumFailures
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

// HitRate returns PoolHits/PoolGets, or 0 when no pool activity was
// attributed (untraced operations).
func (s QueryStats) HitRate() float64 {
	if s.PoolGets == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(s.PoolGets)
}
