package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"probe/internal/btree"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/zorder"
)

// This file implements proximity queries (Section 6: "Proximity
// queries can often be translated into containment or overlap
// queries"): k-nearest-neighbor search by repeated range queries over
// expanding boxes.

// Metric selects the distance for nearest-neighbor queries.
type Metric int

const (
	// Chebyshev is the L-infinity metric (max per-axis distance); an
	// L-infinity ball is exactly a box, so the translation to range
	// queries is lossless.
	Chebyshev Metric = iota
	// Euclidean is the L2 metric; the search runs on bounding boxes
	// and re-verifies with the true distance.
	Euclidean
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Chebyshev:
		return "chebyshev"
	case Euclidean:
		return "euclidean"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Neighbor is one nearest-neighbor result.
type Neighbor struct {
	Point geom.Point
	// Dist is the distance to the query under the chosen metric.
	Dist float64
}

// Nearest returns the m indexed points nearest to q, sorted by
// distance (ties by id). It runs range searches (by the given
// strategy) over boxes of doubling radius until enough candidates are
// found, then shrinks to the certified radius — the
// containment/overlap translation of proximity queries. The returned
// stats aggregate all the underlying searches.
func (ix *reader) Nearest(q []uint32, m int, metric Metric, strategy Strategy) ([]Neighbor, SearchStats, error) {
	return ix.nearest(nil, q, m, metric, strategy)
}

// NearestCtx is the serving path's Nearest: lazy-merge range searches
// under a cancellation context. Every underlying range search checks
// it (nil = never cancelled; see RangeSearchFuncCtx), so a cancelled
// proximity query stops between or inside its expansion rounds with
// the context's error.
func (ix *reader) NearestCtx(ctx context.Context, q []uint32, m int, metric Metric) ([]Neighbor, SearchStats, error) {
	return ix.nearest(ctx, q, m, metric, MergeLazy)
}

func (ix *reader) nearest(ctx context.Context, q []uint32, m int, metric Metric, strategy Strategy) ([]Neighbor, SearchStats, error) {
	var agg SearchStats
	if !ix.g.Valid(q) {
		return nil, agg, fmt.Errorf("core: query point %v outside %v", q, ix.g)
	}
	if m <= 0 {
		return nil, agg, fmt.Errorf("core: m = %d must be positive", m)
	}
	if metric != Chebyshev && metric != Euclidean {
		return nil, agg, fmt.Errorf("core: unknown metric %d", int(metric))
	}
	if ix.Len() == 0 {
		return nil, agg, nil
	}
	if m > ix.Len() {
		m = ix.Len()
	}
	// Phase 1: expand an L-infinity box until it holds >= m points.
	r := uint32(1)
	var candidates []geom.Point
	for {
		box := ix.ringBox(q, r)
		pts, stats, err := ix.searchAll(ctx, box, strategy, nil)
		if err != nil {
			return nil, agg, err
		}
		accumulate(&agg, stats)
		candidates = pts
		if len(candidates) >= m || ix.coversSpace(box) {
			break
		}
		maxSide := uint64(0)
		for i := 0; i < ix.g.Dims(); i++ {
			if s := ix.g.SideOf(i); s > maxSide {
				maxSide = s
			}
		}
		if uint64(r) > maxSide {
			break
		}
		r *= 2
	}
	neighbors := ix.rank(q, candidates, metric)
	if len(neighbors) > m {
		neighbors = neighbors[:m]
	}
	if len(neighbors) < m {
		// Fewer points than requested inside the whole space: done.
		agg.Results = len(neighbors)
		return neighbors, agg, nil
	}
	// Phase 2: the m-th distance certifies a radius; one final search
	// over that radius guarantees no closer point was missed (for
	// Euclidean, any point at L2 distance <= d is within L-infinity
	// distance <= d of q).
	certified := uint32(math.Ceil(neighbors[m-1].Dist))
	finalBox := ix.ringBox(q, certified)
	pts, stats, err := ix.searchAll(ctx, finalBox, strategy, nil)
	if err != nil {
		return nil, agg, err
	}
	accumulate(&agg, stats)
	neighbors = ix.rank(q, pts, metric)
	if len(neighbors) > m {
		neighbors = neighbors[:m]
	}
	agg.Results = len(neighbors)
	return neighbors, agg, nil
}

func accumulate(agg *SearchStats, s SearchStats) {
	agg.DataPages += s.DataPages
	agg.Seeks += s.Seeks
	agg.Elements += s.Elements
}

// ringBox builds the box of L-infinity radius r around q, clamped to
// the grid.
func (ix *reader) ringBox(q []uint32, r uint32) geom.Box {
	lo := make([]uint32, len(q))
	hi := make([]uint32, len(q))
	for i, c := range q {
		max := uint32(ix.g.SideOf(i) - 1)
		if c >= r {
			lo[i] = c - r
		}
		if c <= max-r {
			hi[i] = c + r
		} else {
			hi[i] = max
		}
	}
	return geom.Box{Lo: lo, Hi: hi}
}

func (ix *reader) coversSpace(b geom.Box) bool {
	for i := range b.Lo {
		if b.Lo[i] != 0 || b.Hi[i] != uint32(ix.g.SideOf(i)-1) {
			return false
		}
	}
	return true
}

// rank sorts candidates by distance to q under the metric.
func (ix *reader) rank(q []uint32, pts []geom.Point, metric Metric) []Neighbor {
	ns := make([]Neighbor, len(pts))
	for i, p := range pts {
		ns[i] = Neighbor{Point: p, Dist: distance(q, p.Coords, metric)}
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].Point.ID < ns[j].Point.ID
	})
	return ns
}

// Distance returns the distance between two coordinate vectors under
// the metric. Exposed so transaction overlays can rank buffered
// (uncommitted) points against snapshot results.
func Distance(a, b []uint32, metric Metric) float64 { return distance(a, b, metric) }

func distance(a, b []uint32, metric Metric) float64 {
	switch metric {
	case Chebyshev:
		var d uint32
		for i := range a {
			di := absDiff(a[i], b[i])
			if di > d {
				d = di
			}
		}
		return float64(d)
	default: // Euclidean
		var s float64
		for i := range a {
			di := float64(absDiff(a[i], b[i]))
			s += di * di
		}
		return math.Sqrt(s)
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// NewIndexBulk builds an index by bulk-loading sorted points into a
// packed B+-tree (fill 0 means 100%). Loading n points costs O(n)
// page writes, versus O(n log n) page accesses for one-at-a-time
// insertion, and yields ~30% fewer data pages — see
// BenchmarkAblationBulkLoad.
func NewIndexBulk(pool *disk.Pool, g zorder.Grid, cfg IndexConfig, pts []geom.Point, fill float64) (*Index, error) {
	entries := make([]btree.Entry, len(pts))
	for i, p := range pts {
		if !g.Valid(p.Coords) {
			return nil, fmt.Errorf("core: point %v outside %v", p, g)
		}
		entries[i] = btree.Entry{Key: btree.Key{Hi: g.ShuffleKey(p.Coords), Lo: p.ID}}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	tree, err := btree.Load(pool, btree.Config{ValueSize: 0, LeafCapacity: cfg.LeafCapacity}, entries, fill)
	if err != nil {
		return nil, err
	}
	return newIndexOver(g, tree), nil
}
