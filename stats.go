package probe

import (
	"probe/internal/core"
	"probe/internal/obs"
)

// QueryStats is the unified statistics record every stats-returning
// probe entry point yields. It subsumes the four internal shapes —
// core.SearchStats, core.JoinStats, disk.PoolStats and disk.IOStats —
// under one flat struct, keeping their field names.
//
// Only the fields relevant to an operation are populated: a range
// search fills the search group, a join the join group. The buffer
// pool and physical I/O groups are attributed per operation and are
// populated only when the operation ran with a Trace (WithTrace);
// untraced operations leave them zero rather than pay for
// attribution.
type QueryStats struct {
	// Range search (legacy core.SearchStats).

	// DataPages is the number of distinct leaf pages touched: the
	// paper's "(data) pages accessed" metric.
	DataPages int
	// Seeks counts random accesses into the point sequence.
	Seeks int
	// Elements counts box elements consumed (strategies A and B) or
	// BigMin computations (strategy C).
	Elements int
	// Results is the number of points reported.
	Results int

	// Spatial join (legacy core.JoinStats).

	// LeftItems and RightItems are the join input sizes in elements.
	LeftItems, RightItems int
	// RawPairs counts pairs before the deduplicating projection.
	RawPairs int
	// DistinctPairs counts pairs after it.
	DistinctPairs int
	// Shards is the number of z-prefix partitions a parallel join
	// cut the inputs into (traced parallel joins only; zero for
	// sequential or untraced joins).
	Shards int
	// ReplicatedItems is the parallel join's net partitioning
	// overhead: items processed across shards in excess of the inputs,
	// clamped at zero. Ancestor replication raises it; one-sided
	// shards pruned before joining lower it (traced parallel joins
	// only).
	ReplicatedItems int

	// Buffer pool, attributed to this operation (legacy
	// disk.PoolStats; traced operations only).

	PoolGets       uint64
	PoolHits       uint64
	PoolMisses     uint64
	PoolEvictions  uint64
	PoolWriteBacks uint64

	// Physical page I/O, attributed to this operation (legacy
	// disk.IOStats reads/writes; traced operations only).

	PhysReads  uint64
	PhysWrites uint64

	// Durability, attributed to this operation (databases opened
	// WithDurability; traced operations only).

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

// searchQueryStats lifts legacy search stats into the unified shape.
func searchQueryStats(ss core.SearchStats) QueryStats {
	return QueryStats{
		DataPages: ss.DataPages,
		Seeks:     ss.Seeks,
		Elements:  ss.Elements,
		Results:   ss.Results,
	}
}

// joinQueryStats lifts legacy join stats into the unified shape.
func joinQueryStats(js core.JoinStats) QueryStats {
	return QueryStats{
		LeftItems:     js.LeftItems,
		RightItems:    js.RightItems,
		RawPairs:      js.RawPairs,
		DistinctPairs: js.DistinctPairs,
	}
}

// addSpanIO copies the span-attributed buffer-pool and physical-I/O
// counters (and, for joins, the partitioning counters) into s. A nil
// span leaves s unchanged.
func (s *QueryStats) addSpanIO(sp *obs.Span) {
	if sp == nil {
		return
	}
	s.PoolGets = uint64(sp.Total(obs.PoolGets))
	s.PoolHits = uint64(sp.Total(obs.PoolHits))
	s.PoolMisses = uint64(sp.Total(obs.PoolMisses))
	s.PoolEvictions = uint64(sp.Total(obs.PoolEvictions))
	s.PoolWriteBacks = uint64(sp.Total(obs.PoolWriteBacks))
	s.PhysReads = uint64(sp.Total(obs.PhysReads))
	s.PhysWrites = uint64(sp.Total(obs.PhysWrites))
	s.WALAppends = uint64(sp.Total(obs.WALAppends))
	s.WALSyncs = uint64(sp.Total(obs.WALSyncs))
	s.PagesRecovered = uint64(sp.Total(obs.PagesRecovered))
	s.ChecksumFailures = uint64(sp.Total(obs.ChecksumFailures))
	s.Shards = int(sp.Get(obs.Shards))
	s.ReplicatedItems = int(sp.Get(obs.ReplicatedItems))
}
