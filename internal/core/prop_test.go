package core

import (
	"math/rand"
	"testing"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// Differential property tests for RangeSearch and Nearest, sharing
// the randomized-workload generator infrastructure of the join
// harness (randomBoxes + brute-force oracles): random points and
// random queries over grids of varying dimensionality and depth, each
// answer checked against an O(n) scan.

// randomPoints is the generator counterpart of randomBoxes: n points
// with unique ids, possibly sharing pixels.
func randomPoints(g zorder.Grid, n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		coords := make([]uint32, g.Dims())
		for d := range coords {
			coords[d] = uint32(rng.Uint64() % g.SideOf(d))
		}
		pts[i] = geom.Point{ID: uint64(i), Coords: coords}
	}
	return pts
}

// propGrid is one grid of a battery. Points and boxes are drawn on
// draw and moved to the far corner of g (moveToFarCorner), which for
// most cases is the same grid and no move. A grid too deep to fill is
// reached that way: its tree keys take their full width, and a box
// still decomposes into as few elements as it does on draw.
type propGrid struct {
	g, draw zorder.Grid
}

func sameGrid(dims, bits int) propGrid {
	g := zorder.MustGrid(dims, bits)
	return propGrid{g, g}
}

// deepGrid is the 3 x 21-bit grid, 63 bits of z value, whose keys are
// stored at the full 16 bytes.
var deepGrid = propGrid{zorder.MustGrid(3, 21), zorder.MustGrid(3, 4)}

// moveToFarCorner translates coordinates drawn on c.draw so that
// c.draw's far corner lands on c.g's. The offset is a multiple of
// c.draw's side in every dimension, so elements keep their alignment.
func (c propGrid) moveToFarCorner(pts []geom.Point, boxes []geom.Box) {
	for d := 0; d < c.g.Dims(); d++ {
		off := uint32(c.g.SideOf(d) - c.draw.SideOf(d))
		for _, p := range pts {
			p.Coords[d] += off
		}
		for _, b := range boxes {
			b.Lo[d] += off
			b.Hi[d] += off
		}
	}
}

func TestRangeSearchDifferentialProperty(t *testing.T) {
	grids := []propGrid{
		sameGrid(1, 8), // keys of 1 + 8 bytes
		sameGrid(2, 5),
		sameGrid(2, 9),
		sameGrid(3, 4),
		deepGrid,
	}
	runs := 0
	for gi, c := range grids {
		g := c.g
		pts := randomPoints(c.draw, 600, int64(500+gi))
		boxes := randomBoxes(c.draw, 20, int64(600+gi))
		c.moveToFarCorner(pts, boxes)
		ix := newTestIndex(t, g, 10)
		if err := ix.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		for _, box := range boxes {
			want := bruteIDs(pts, box)
			for _, s := range allStrategies() {
				got, stats, err := ix.RangeSearch(box, s)
				if err != nil {
					t.Fatalf("grid %v box %v strategy %v: %v", g, box, s, err)
				}
				if !equalU64(resultIDs(got), want) {
					t.Fatalf("grid %v box %v strategy %v: %d results, brute force %d",
						g, box, s, len(got), len(want))
				}
				if stats.Results != len(got) {
					t.Fatalf("grid %v strategy %v: stats.Results %d != %d", g, s, stats.Results, len(got))
				}
				runs++
			}
		}
	}
	if runs < 200 {
		t.Fatalf("range-search property harness ran %d checks, want >= 200", runs)
	}
}

func TestNearestDifferentialProperty(t *testing.T) {
	grids := []propGrid{
		sameGrid(2, 6),
		sameGrid(2, 8),
		sameGrid(3, 4),
		sameGrid(1, 8),
		deepGrid,
	}
	runs := 0
	for gi, c := range grids {
		g := c.g
		pts := randomPoints(c.draw, 400, int64(700+gi))
		queries := randomPoints(c.draw, 25, int64(800+gi))
		c.moveToFarCorner(append(pts, queries...), nil)
		ix := newTestIndex(t, g, 10)
		if err := ix.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(800 + gi)))
		for _, query := range queries {
			q := query.Coords
			m := 1 + rng.Intn(12)
			for _, metric := range []Metric{Chebyshev, Euclidean} {
				got, _, err := ix.Nearest(q, m, metric, MergeLazy)
				if err != nil {
					t.Fatalf("grid %v q=%v m=%d: %v", g, q, m, err)
				}
				want := bruteNearest(pts, q, m, metric)
				if len(got) != len(want) {
					t.Fatalf("grid %v q=%v m=%d %v: %d neighbors, want %d",
						g, q, m, metric, len(got), len(want))
				}
				for i := range got {
					// Distances must match; ids may differ only among
					// equidistant points.
					if got[i].Dist != want[i].Dist {
						t.Fatalf("grid %v q=%v m=%d %v: neighbor %d dist %v, want %v",
							g, q, m, metric, i, got[i].Dist, want[i].Dist)
					}
				}
				runs++
			}
		}
	}
	if runs < 150 {
		t.Fatalf("nearest property harness ran %d checks, want >= 150", runs)
	}
}
