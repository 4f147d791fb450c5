package probe

import (
	"probe/internal/core"
	"probe/internal/obs"
)

// QueryStats is the unified statistics record every stats-returning
// probe entry point yields. Only the fields relevant to an operation
// are populated: a range search fills the search group, a join the
// join group. The buffer pool, physical I/O and durability groups are
// attributed per operation and are populated only when the operation
// ran with a Trace (WithTrace); untraced operations leave them zero
// rather than pay for attribution.
type QueryStats = core.QueryStats

// addSpanIO copies the span-attributed buffer-pool, physical-I/O and
// durability counters into s. A nil span leaves s unchanged.
func addSpanIO(s *QueryStats, sp *obs.Span) {
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
}
