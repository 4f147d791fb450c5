package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"probe/internal/obs"
)

// ParallelJoinConfig tunes SpatialJoinParallel.
type ParallelJoinConfig struct {
	// Workers is the degree of parallelism: the number of goroutines
	// joining shards. Zero or negative selects runtime.GOMAXPROCS(0).
	Workers int
	// PrefixBits is the z-prefix length at which the inputs are cut
	// into shards (up to 2^PrefixBits of them). Zero or negative
	// derives a value from Workers (≥ 4 shards per worker, so uneven
	// shards even out). One shard per worker would also be correct;
	// more just balances better.
	PrefixBits int
}

func (cfg ParallelJoinConfig) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func maxElemLen(a, b []Item) int {
	m := 0
	for _, it := range a {
		if int(it.Elem.Len) > m {
			m = int(it.Elem.Len)
		}
	}
	for _, it := range b {
		if int(it.Elem.Len) > m {
			m = int(it.Elem.Len)
		}
	}
	return m
}

func (cfg ParallelJoinConfig) prefixBits(workers int) int {
	if cfg.PrefixBits > 0 {
		if cfg.PrefixBits > maxPartitionBits {
			return maxPartitionBits
		}
		return cfg.PrefixBits
	}
	return partitionBitsFor(workers)
}

// SpatialJoinParallel computes the same join as SpatialJoin by
// cutting both inputs at common z-prefix boundaries (PartitionZ) and
// fanning the shards out across a bounded worker pool. Shard outputs
// are concatenated in shard order, so the result is deterministic —
// independent of scheduling — and, after the DedupPairs projection,
// identical to the sequential join's (replicated ancestors make some
// raw pairs appear in several shards; the projection the paper
// already prescribes removes them).
//
// Both inputs must be sorted in z order (SortItems). The concurrency
// is pure fan-out over immutable slices: workers share nothing but
// the input arrays and write disjoint result slots.
func SpatialJoinParallel(a, b []Item, cfg ParallelJoinConfig) ([]Pair, error) {
	return SpatialJoinParallelCtx(nil, a, b, cfg, nil)
}

// SpatialJoinParallelCtx is SpatialJoinParallel under a cancellation
// context (nil = never cancelled): each shard's merge checks it every
// joinCancelStride steps, the dispatcher stops handing out shards
// once it is done, and the first context error observed is returned.
// It attributes the work per shard on sp: one child span per shard
// (created serially in shard order, so the trace tree is
// deterministic) carrying the shard's input sizes, merge steps, raw
// pairs, and wall time, plus
// obs.Shards and obs.ReplicatedItems totals on sp itself. Each
// counter is recorded at exactly one level — per-shard work on the
// shard spans, shard-level facts on sp — so sp.Total aggregates
// without double counting: Total(obs.RawPairs) equals the join's raw
// pair count, and Total(obs.ItemsLeft)+Total(obs.ItemsRight) equals
// the items the workers actually processed (the inputs, plus
// ancestor replication, minus items routed only to pruned one-sided
// shards). obs.ReplicatedItems is that processed total's excess over
// the inputs, clamped at zero — the net overhead of partitioning. A
// nil span behaves exactly like SpatialJoinParallel at no cost.
func SpatialJoinParallelCtx(ctx context.Context, a, b []Item, cfg ParallelJoinConfig, sp *obs.Span) ([]Pair, error) {
	workers := cfg.workers()
	pb := cfg.prefixBits(workers)
	// Cutting deeper than the finest element present only replicates:
	// an element shorter than the cut goes to every shard it covers.
	if m := maxElemLen(a, b); pb > m {
		pb = m
	}
	parts, err := PartitionZ(a, b, pb)
	if err != nil {
		return nil, err
	}
	results := make([][]Pair, len(parts))
	if len(parts) == 0 {
		return nil, nil
	}
	if workers > len(parts) {
		workers = len(parts)
	}
	sp.Add(obs.Shards, int64(len(parts)))
	// Shard spans are created up front, serially and in shard order, so
	// the child list is deterministic regardless of worker scheduling.
	var shardSpans []*obs.Span
	if sp != nil {
		shardSpans = make([]*obs.Span, len(parts))
		replicated := int64(-(len(a) + len(b)))
		for s := range parts {
			shardSpans[s] = sp.Child(fmt.Sprintf("shard-%03d", s))
			replicated += int64(len(parts[s].A) + len(parts[s].B))
		}
		if replicated > 0 {
			sp.Add(obs.ReplicatedItems, replicated)
		}
	}
	shardSpan := func(s int) *obs.Span {
		if shardSpans == nil {
			return nil
		}
		return shardSpans[s]
	}
	var (
		wg      sync.WaitGroup
		next    = make(chan int)
		errOnce sync.Once
		joinErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for s := range next {
				ss := shardSpan(s)
				ss.Add(obs.ItemsLeft, int64(len(parts[s].A)))
				ss.Add(obs.ItemsRight, int64(len(parts[s].B)))
				var pairs []Pair
				err := spatialJoinFunc(ctx, parts[s].A, parts[s].B, ss, func(p Pair) bool {
					pairs = append(pairs, p)
					return true
				})
				ss.End()
				if err != nil {
					// A cancelled shard (or, defensively, a failed
					// one) records the first error; remaining shards
					// drain quickly because they hit the same context.
					errOnce.Do(func() { joinErr = err })
					continue
				}
				results[s] = pairs
			}
		}()
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
dispatch:
	for s := range parts {
		select {
		case next <- s:
		case <-done:
			errOnce.Do(func() { joinErr = ctx.Err() })
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if joinErr != nil {
		return nil, joinErr
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	out := make([]Pair, 0, total)
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// SpatialJoinParallelDistinct is SpatialJoinParallel followed by the
// deduplicating projection: the parallel counterpart of
// SpatialJoinDistinct, with identical output.
func SpatialJoinParallelDistinct(a, b []Item, cfg ParallelJoinConfig) ([]Pair, JoinStats, error) {
	return SpatialJoinParallelDistinctCtx(nil, a, b, cfg, nil)
}

// SpatialJoinParallelDistinctCtx is SpatialJoinParallelDistinct under
// a cancellation context and with per-shard attribution on sp (see
// SpatialJoinParallelCtx; nil disables either at no cost).
func SpatialJoinParallelDistinctCtx(ctx context.Context, a, b []Item, cfg ParallelJoinConfig, sp *obs.Span) ([]Pair, JoinStats, error) {
	stats := JoinStats{LeftItems: len(a), RightItems: len(b)}
	raw, err := SpatialJoinParallelCtx(ctx, a, b, cfg, sp)
	if err != nil {
		return nil, stats, fmt.Errorf("core: parallel join: %w", err)
	}
	stats.RawPairs = len(raw)
	out := DedupPairs(raw)
	stats.DistinctPairs = len(out)
	sp.Add(obs.DistinctPairs, int64(len(out)))
	return out, stats, nil
}
