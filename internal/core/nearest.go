package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"probe/internal/geom"
	"probe/internal/obs"
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
func (ix *reader) Nearest(q []uint32, m int, metric Metric, strategy Strategy) ([]Neighbor, QueryStats, error) {
	return ix.nearest(nil, q, m, metric, strategy, nil)
}

// NearestCtx is the serving path's Nearest: lazy-merge range searches
// under a cancellation context. Every underlying range search checks
// it (nil = never cancelled; see RangeSearchFuncCtx), so a cancelled
// proximity query stops between or inside its expansion rounds with
// the context's error. Every round counts its work on sp, as
// RangeSearchCtx does; sp's results are the neighbors returned.
func (ix *reader) NearestCtx(ctx context.Context, q []uint32, m int, metric Metric, sp *obs.Span) ([]Neighbor, QueryStats, error) {
	return ix.nearest(ctx, q, m, metric, MergeLazy, sp)
}

func (ix *reader) nearest(ctx context.Context, q []uint32, m int, metric Metric, strategy Strategy, sp *obs.Span) ([]Neighbor, QueryStats, error) {
	var agg QueryStats
	if !ix.g.Valid(q) {
		return nil, agg, fmt.Errorf("core: query point %v outside %v", q, ix.g)
	}
	if m <= 0 {
		return nil, agg, fmt.Errorf("core: m = %d must be positive", m)
	}
	if metric != Chebyshev && metric != Euclidean {
		return nil, agg, fmt.Errorf("core: unknown metric %d", int(metric))
	}
	s := ix.take()
	defer ix.give(s)
	// Size the answer on the version the rounds read: on the live index
	// a commit may already have moved Len past it.
	n := ix.count(ix.version(s))
	if n == 0 {
		return nil, agg, nil
	}
	m = min(m, n)
	// Phase 1: expand an L-infinity box until it holds >= m points or
	// is the whole space, which a doubling radius makes it in the end.
	// The radius is a uint64: on a 32-bit dimension it passes every
	// uint32 first.
	for r := uint64(1); ; r *= 2 {
		n, whole, err := ix.nearestRound(s, ctx, q, r, m, metric, strategy, sp, &agg)
		if err != nil {
			return nil, agg, err
		}
		if n >= m || whole {
			break
		}
	}
	if len(s.best) == m {
		// Phase 2: the m-th distance certifies a radius; one final
		// search over that radius guarantees no closer point was missed
		// (for Euclidean, any point at L2 distance <= d is within
		// L-infinity distance <= d of q). With fewer than m points in
		// the whole space there is nothing to certify.
		certified := uint64(math.Ceil(s.best[0].dist))
		if _, _, err := ix.nearestRound(s, ctx, q, certified, m, metric, strategy, sp, &agg); err != nil {
			return nil, agg, err
		}
	}
	// Only the survivors become points.
	slices.SortFunc(s.best, compareCandidates)
	neighbors := make([]Neighbor, len(s.best))
	slab := make([]uint32, len(s.best)*len(q))
	for i, c := range s.best {
		neighbors[i] = Neighbor{Point: ix.pointAt(slab, i, c.z, c.id), Dist: c.dist}
	}
	agg.Results = len(neighbors)
	sp.Add(obs.Results, int64(agg.Results))
	return neighbors, agg, nil
}

// nearestRound searches the box of L-infinity radius r around q,
// clamped to the grid, and leaves the m best of its points in s.best.
// It reports how many points the box held and whether the box was the
// whole space.
func (ix *reader) nearestRound(s *scratch, ctx context.Context, q []uint32, r uint64, m int, metric Metric, strategy Strategy, sp *obs.Span, agg *QueryStats) (n int, whole bool, err error) {
	box, whole := ix.ringBox(s, q, r)
	s.best = s.best[:0]
	var at [zorder.MaxBits]uint32
	stats, err := ix.searchKeys(s, ctx, box, strategy, sp, func(z, id uint64) bool {
		ix.unshuffle(z, at[:len(q)])
		s.best = offer(s.best, m, candidate{distance(q, at[:len(q)], metric), id, z})
		return true
	})
	if err != nil {
		return 0, false, err
	}
	agg.Add(stats)
	return stats.Results, whole, nil
}

// ringBox builds, in s, the box RingBox describes.
func (ix *reader) ringBox(s *scratch, q []uint32, r uint64) (box geom.Box, whole bool) {
	box = geom.Box{Lo: s.lo[:len(q)], Hi: s.hi[:len(q)]}
	return box, RingBox(ix.g, q, r, box.Lo, box.Hi)
}

// RingBox writes to lo and hi the box of L-infinity radius r around q
// clamped to the grid, and reports whether that is the whole space. r
// may exceed every coordinate: the arithmetic is in uint64 and
// saturates at the grid's edges. Every point within distance r of q,
// under either metric, lies in it: the box a NEAREST answer certifies,
// on one node and in the router.
func RingBox(g zorder.Grid, q []uint32, r uint64, lo, hi []uint32) (whole bool) {
	whole = true
	for i, c := range q {
		c, last := uint64(c), g.SideOf(i)-1
		r := min(r, last)
		lo[i], hi[i] = uint32(c-min(c, r)), uint32(min(c+r, last))
		whole = whole && lo[i] == 0 && uint64(hi[i]) == last
	}
	return whole
}

// candidate is a point NEAREST may return, as the search streams it:
// its key and its distance to the query, not yet coordinates.
type candidate struct {
	dist  float64
	id, z uint64
}

// compareCandidates is NEAREST's order: by distance, ties by id (and
// then by pixel, so that the order is total).
func compareCandidates(a, b candidate) int {
	return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id), cmp.Compare(a.z, b.z))
}

// offer keeps c if it is among the m best offered so far. best is a
// max-heap under compareCandidates: the worst kept candidate is
// best[0], the one a better newcomer evicts.
func offer(best []candidate, m int, c candidate) []candidate {
	i := len(best)
	if i < m {
		best = append(best, c)
		for ; i > 0 && compareCandidates(best[i], best[(i-1)/2]) > 0; i = (i - 1) / 2 {
			best[i], best[(i-1)/2] = best[(i-1)/2], best[i]
		}
		return best
	}
	if compareCandidates(c, best[0]) >= 0 {
		return best
	}
	best[0], i = c, 0
	for {
		top := i
		for _, j := range [2]int{2*i + 1, 2*i + 2} {
			if j < len(best) && compareCandidates(best[j], best[top]) > 0 {
				top = j
			}
		}
		if top == i {
			return best
		}
		best[i], best[top] = best[top], best[i]
		i = top
	}
}

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
