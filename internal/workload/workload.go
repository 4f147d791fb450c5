// Package workload generates the data sets and query sets of the
// paper's experiments (Section 5.3.2): uniformly distributed points
// (experiment U), clustered points (experiment C: 50 small clusters
// of 100 points each) and diagonal points (experiment D: points
// uniformly distributed along the x = y line), together with range
// queries of controlled shape and volume at random locations.
//
// All generators are deterministic given their seed. A generator
// allocates per call, not per point: the points' coordinates are cut
// from one slab of n*dims values, each point's capped at its own
// length, so an append to one point's coordinates copies them rather
// than running into its neighbour's.
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// Uniform generates n points uniformly distributed over grid g
// (experiment U).
func Uniform(g zorder.Grid, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	k, side := g.Dims(), g.Side()
	slab := make([]uint32, n*k)
	pts := make([]geom.Point, n)
	for i := range pts {
		coords := slab[i*k : i*k+k : i*k+k]
		for d := range coords {
			coords[d] = uint32(rng.Uint64() % side)
		}
		pts[i] = geom.Point{ID: uint64(i), Coords: coords}
	}
	return pts
}

// Clustered generates clusters*perCluster points in small Gaussian
// clusters with the given standard deviation, centered uniformly at
// random (experiment C: 50 clusters of 100 points). Points falling
// outside the grid are clamped to its edge.
func Clustered(g zorder.Grid, clusters, perCluster int, stddev float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	k, n := g.Dims(), clusters*perCluster
	slab := make([]uint32, n*k)
	pts := make([]geom.Point, n)
	side := float64(g.Side())
	center := make([]float64, k)
	for i := range pts {
		if i%perCluster == 0 {
			for d := range center {
				center[d] = rng.Float64() * side
			}
		}
		coords := slab[i*k : i*k+k : i*k+k]
		for d := range coords {
			coords[d] = clamp(center[d]+rng.NormFloat64()*stddev, side)
		}
		pts[i] = geom.Point{ID: uint64(i), Coords: coords}
	}
	return pts
}

// Diagonal generates n points uniformly distributed along the main
// diagonal of the space (experiment D), jittered by the given spread
// perpendicular to it.
func Diagonal(g zorder.Grid, n int, spread float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	k, side := g.Dims(), float64(g.Side())
	slab := make([]uint32, n*k)
	pts := make([]geom.Point, n)
	for i := range pts {
		t := rng.Float64() * side
		coords := slab[i*k : i*k+k : i*k+k]
		for d := range coords {
			coords[d] = clamp(t+rng.NormFloat64()*spread, side)
		}
		pts[i] = geom.Point{ID: uint64(i), Coords: coords}
	}
	return pts
}

func clamp(v, side float64) uint32 {
	if v < 0 {
		return 0
	}
	if v >= side-1 {
		return uint32(side - 1)
	}
	return uint32(v)
}

// Dedupe removes points sharing identical coordinates, keeping the
// first occurrence; the paper's model has at most one tuple per
// pixel. Order is preserved. It filters in place: the result is a
// prefix of pts's backing array, so pts itself must not be used after
// the call. The points' z values go into an open-addressed set at most
// half full, its one allocation.
func Dedupe(g zorder.Grid, pts []geom.Point) []geom.Point {
	if len(pts) < 2 {
		return pts
	}
	b := bits.Len(uint(2*len(pts) - 1))
	set := make([]uint64, 1<<b) // z values; 0 marks an empty slot
	zero := false               // the z value 0 is in the set
	out := pts[:0]
	for _, p := range pts {
		z := g.ShuffleKey(p.Coords)
		i := (z ^ z>>32) * 0x9e3779b97f4a7c15 >> (64 - b)
		for set[i] != z && set[i] != 0 {
			i = (i + 1) & (1<<b - 1)
		}
		if set[i] == z && (z != 0 || zero) {
			continue
		}
		set[i], zero = z, zero || z == 0
		out = append(out, p)
	}
	return out
}

// QuerySpec describes one query family of the Section 5.3.2 sweep:
// rectangles of a given volume (as a fraction of the space) and
// aspect ratio (width : height = Aspect : 1), placed at random
// locations.
type QuerySpec struct {
	// Volume is the query's volume as a fraction of the space (0,1].
	Volume float64
	// Aspect is width/height. 1 is square; 0.5 is twice as tall as
	// wide; 16 is long and flat. For k > 2 dimensions the first axis
	// gets Aspect and the rest share the remaining volume equally.
	Aspect float64
}

// String implements fmt.Stringer.
func (q QuerySpec) String() string {
	return fmt.Sprintf("v=%.4f aspect=%g", q.Volume, q.Aspect)
}

// Sides returns the integer side lengths of a query with the spec's
// volume and aspect on grid g, each at least 1 and at most the grid
// side.
func (q QuerySpec) Sides(g zorder.Grid) ([]uint32, error) {
	if q.Volume <= 0 || q.Volume > 1 {
		return nil, fmt.Errorf("workload: volume %v outside (0,1]", q.Volume)
	}
	if q.Aspect <= 0 {
		return nil, fmt.Errorf("workload: aspect %v not positive", q.Aspect)
	}
	k := g.Dims()
	side := float64(g.Side())
	vol := q.Volume * math.Pow(side, float64(k))
	// base^k * aspect = vol, with dimension 0 scaled by aspect.
	base := math.Pow(vol/q.Aspect, 1/float64(k))
	f := make([]float64, k)
	for d := range f {
		f[d] = base
		if d == 0 {
			f[d] = base * q.Aspect
		}
	}
	// If a side exceeds the grid, clamp it and redistribute the lost
	// volume over the unclamped dimensions so equal-volume shape
	// comparisons stay fair (extreme aspects on small grids would
	// otherwise silently shrink the query).
	for iter := 0; iter < k; iter++ {
		excess := 1.0
		free := 0
		for _, s := range f {
			if s > side {
				excess *= s / side
			} else {
				free++
			}
		}
		if excess == 1.0 || free == 0 {
			break
		}
		scale := math.Pow(excess, 1/float64(free))
		for d := range f {
			if f[d] > side {
				f[d] = side
			} else {
				f[d] *= scale
			}
		}
	}
	sides := make([]uint32, k)
	for d := range sides {
		si := uint32(math.Round(f[d]))
		if si < 1 {
			si = 1
		}
		if uint64(si) > g.Side() {
			si = uint32(g.Side())
		}
		sides[d] = si
	}
	return sides, nil
}

// Queries places count queries of the given spec at random locations
// inside grid g.
func Queries(g zorder.Grid, spec QuerySpec, count int, seed int64) ([]geom.Box, error) {
	sides, err := spec.Sides(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]geom.Box, count)
	for i := range boxes {
		lo := make([]uint32, g.Dims())
		hi := make([]uint32, g.Dims())
		for d := range lo {
			maxLo := uint32(g.Side()) - sides[d]
			var l uint32
			if maxLo > 0 {
				l = uint32(rng.Uint64() % uint64(maxLo+1))
			}
			lo[d] = l
			hi[d] = l + sides[d] - 1
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return boxes, nil
}

// PartialMatches generates partial-match queries on grid g with the
// given restricted-dimension mask: restricted dimensions are pinned
// to random values, the rest span the whole axis (Section 5.3.1).
func PartialMatches(g zorder.Grid, restricted []bool, count int, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]geom.Box, count)
	for i := range boxes {
		value := make([]uint32, g.Dims())
		for d := range value {
			value[d] = uint32(rng.Uint64() % g.Side())
		}
		boxes[i] = geom.PartialMatchBox(g, restricted, value)
	}
	return boxes
}

// PaperSpecs returns the query sweep used for Tables S5-S7: the cross
// product of four volumes and seven aspect ratios, from long-and-flat
// through square to tall-and-narrow, echoing the paper's "queries of
// various rectangular shapes (and four different volumes)".
func PaperSpecs() []QuerySpec {
	volumes := []float64{0.01, 0.04, 0.09, 0.16}
	aspects := []float64{16, 4, 2, 1, 0.5, 0.25, 0.0625}
	specs := make([]QuerySpec, 0, len(volumes)*len(aspects))
	for _, v := range volumes {
		for _, a := range aspects {
			specs = append(specs, QuerySpec{Volume: v, Aspect: a})
		}
	}
	return specs
}
