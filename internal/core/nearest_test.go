package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"probe/internal/btree"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// rank sorts every candidate by distance to q, ties by id: how
// NEAREST ranked each expansion round before it kept a bounded heap.
// It survives as the oracle the heap is compared with.
func rank(q []uint32, pts []geom.Point, metric Metric) []Neighbor {
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

func bruteNearest(pts []geom.Point, q []uint32, m int, metric Metric) []Neighbor {
	ns := rank(q, pts, metric)
	if len(ns) > m {
		ns = ns[:m]
	}
	return ns
}

func TestNearestAgainstBruteForce(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	datasets := map[string][]geom.Point{
		"uniform":   workload.Uniform(g, 700, 21),
		"clustered": workload.Clustered(g, 8, 80, 4, 22),
		"diagonal":  workload.Diagonal(g, 700, 2, 23),
	}
	rng := rand.New(rand.NewSource(24))
	for name, pts := range datasets {
		ix := newTestIndex(t, g, 10)
		if err := ix.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 25; trial++ {
			q := []uint32{uint32(rng.Intn(256)), uint32(rng.Intn(256))}
			m := 1 + rng.Intn(10)
			for _, metric := range []Metric{Chebyshev, Euclidean} {
				got, stats, err := ix.Nearest(q, m, metric, MergeLazy)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteNearest(pts, q, m, metric)
				if len(got) != len(want) {
					t.Fatalf("%s/%v: %d neighbors, want %d", name, metric, len(got), len(want))
				}
				for i := range got {
					// Distances must match exactly; ids may differ only
					// among equidistant points.
					if got[i].Dist != want[i].Dist {
						t.Fatalf("%s/%v q=%v m=%d: neighbor %d dist %v, want %v",
							name, metric, q, m, i, got[i].Dist, want[i].Dist)
					}
				}
				if stats.Results != len(got) || stats.DataPages == 0 {
					t.Fatalf("%s/%v: stats wrong: %+v", name, metric, stats)
				}
			}
		}
	}
}

func TestNearestExactTiesAreStable(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	// Four points all at Chebyshev distance 2 from (10, 10).
	pts := []geom.Point{
		geom.Pt2(4, 12, 10), geom.Pt2(3, 8, 10),
		geom.Pt2(2, 10, 12), geom.Pt2(1, 10, 8),
	}
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.Nearest([]uint32{10, 10}, 2, Chebyshev, SkipBigMin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Point.ID != 1 || got[1].Point.ID != 2 {
		t.Errorf("tie break by id failed: %v", got)
	}
}

func TestNearestMoreThanAvailable(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	ix.BulkLoad([]geom.Point{geom.Pt2(1, 5, 5), geom.Pt2(2, 50, 50)})
	got, _, err := ix.Nearest([]uint32{0, 0}, 10, Euclidean, MergeLazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d neighbors, want all 2", len(got))
	}
	if got[0].Point.ID != 1 {
		t.Errorf("nearest should be point 1")
	}
}

func TestNearestEmptyIndex(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	got, _, err := ix.Nearest([]uint32{1, 1}, 3, Euclidean, MergeLazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("neighbors on empty index: %v", got)
	}
}

func TestNearestValidation(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	ix.BulkLoad([]geom.Point{geom.Pt2(1, 5, 5)})
	if _, _, err := ix.Nearest([]uint32{999, 0}, 1, Euclidean, MergeLazy); err == nil {
		t.Errorf("out-of-grid query accepted")
	}
	if _, _, err := ix.Nearest([]uint32{1, 1}, 0, Euclidean, MergeLazy); err == nil {
		t.Errorf("m=0 accepted")
	}
	if _, _, err := ix.Nearest([]uint32{1, 1}, 1, Metric(9), MergeLazy); err == nil {
		t.Errorf("bad metric accepted")
	}
	if Metric(9).String() == "" || Euclidean.String() != "euclidean" || Chebyshev.String() != "chebyshev" {
		t.Errorf("metric strings wrong")
	}
}

func TestNearest3D(t *testing.T) {
	g := zorder.MustGrid(3, 5)
	pts := workload.Uniform(g, 400, 25)
	ix := newTestIndex(t, g, 10)
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	q := []uint32{16, 16, 16}
	got, _, err := ix.Nearest(q, 5, Euclidean, MergeLazy)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteNearest(pts, q, 5, Euclidean)
	for i := range got {
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
			t.Fatalf("3d neighbor %d dist %v, want %v", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestNewIndexBulkMatchesInsert(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	pts := workload.Uniform(g, 2000, 26)
	pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	bulk, err := NewIndexBulk(pool, g, IndexConfig{LeafCapacity: 20}, pts)
	if err != nil {
		t.Fatal(err)
	}
	ins := newTestIndex(t, g, 20)
	if err := ins.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != ins.Len() {
		t.Fatalf("lengths differ: %d vs %d", bulk.Len(), ins.Len())
	}
	if bulk.Tree().LeafPages() >= ins.Tree().LeafPages() {
		t.Errorf("bulk index should be packed tighter: %d vs %d leaves",
			bulk.Tree().LeafPages(), ins.Tree().LeafPages())
	}
	if err := bulk.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	box := geom.Box2(30, 120, 40, 200)
	a, _, err := bulk.RangeSearch(box, MergeLazy)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ins.RangeSearch(box, MergeLazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Errorf("query results differ: %d vs %d", len(a), len(b))
	}
}

func TestNewIndexBulkValidation(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	pool := disk.MustPool(disk.MustMemStore(512), 64, disk.LRU)
	if _, err := NewIndexBulk(pool, g, IndexConfig{}, []geom.Point{{ID: 1, Coords: []uint32{99, 0}}}); err == nil {
		t.Errorf("out-of-grid point accepted")
	}
	dup := []geom.Point{{ID: 7, Coords: []uint32{3, 5}}, {ID: 2, Coords: []uint32{1, 1}}, {ID: 7, Coords: []uint32{3, 5}}}
	if _, err := NewIndexBulk(pool, g, IndexConfig{}, dup); !errors.Is(err, btree.ErrDuplicateKey) {
		t.Errorf("duplicate point: err %v, want %v", err, btree.ErrDuplicateKey)
	}
}

// nearestWithin runs Nearest and fails the test if it has not
// returned in a few seconds: the radius bugs below were endless loops.
func nearestWithin(t *testing.T, ix *Index, q []uint32, m int, metric Metric) ([]Neighbor, QueryStats) {
	t.Helper()
	type answer struct {
		nbs []Neighbor
		st  QueryStats
		err error
	}
	done := make(chan answer, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		nbs, st, err := ix.NearestCtx(ctx, q, m, metric, nil)
		done <- answer{nbs, st, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatal(a.err)
		}
		return a.nbs, a.st
	case <-time.After(5 * time.Second):
		cancel()
		<-done
		t.Fatalf("Nearest(%v, %d, %v) did not return in 5 s", q, m, metric)
		return nil, QueryStats{}
	}
}

// The expansion radius doubles past 2^31 on a 32-bit dimension before
// the box is the whole space; as a uint32 it wrapped to 0 and the
// search looped on a one-pixel box.
func TestNearestRadiusDoesNotWrap(t *testing.T) {
	g := zorder.MustGrid(2, 32)
	ix := newTestIndex(t, g, 10)
	const far = 1<<32 - 1
	pts := []geom.Point{geom.Pt2(1, 0, 0), geom.Pt2(2, far, far)}
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	q := []uint32{1<<31 + 5, 1<<31 + 5}
	for _, metric := range []Metric{Chebyshev, Euclidean} {
		got, _ := nearestWithin(t, ix, q, 2, metric)
		want := bruteNearest(pts, q, 2, metric)
		if len(got) != 2 || got[0].Point.ID != want[0].Point.ID || got[1].Point.ID != want[1].Point.ID ||
			got[0].Dist != want[0].Dist || got[1].Dist != want[1].Dist {
			t.Errorf("%v: got %v, want %v", metric, got, want)
		}
	}
}

// A Euclidean m-th distance can exceed every uint32 (the diagonal of a
// 32-bit grid is 2^32.5): the certified radius must not be converted
// through one.
func TestNearestCertifiedRadiusBeyondUint32(t *testing.T) {
	g := zorder.MustGrid(2, 32)
	ix := newTestIndex(t, g, 10)
	const far = 1<<32 - 1
	// From the origin the second neighbour is across the diagonal; a
	// radius that wrapped to a small number certifies a box that holds
	// only the first.
	pts := []geom.Point{geom.Pt2(1, 3, 4), geom.Pt2(2, far, far)}
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	q := []uint32{0, 0}
	got, _ := nearestWithin(t, ix, q, 2, Euclidean)
	want := bruteNearest(pts, q, 2, Euclidean)
	if len(got) != 2 || got[0].Point.ID != 1 || got[1].Point.ID != 2 || got[1].Dist != want[1].Dist {
		t.Errorf("got %v, want %v", got, want)
	}
}

// Every box NEAREST searches lies inside the grid and is the clamped
// ball exactly, whatever the radius: as uint32 arithmetic, a radius
// above a dimension's last coordinate underflowed `last-r`, put the
// upper bound outside the grid and hid a whole-space box from the loop's
// stopping test.
func TestNearestRingBoxSaturates(t *testing.T) {
	for _, g := range []zorder.Grid{zorder.MustGrid(2, 2), zorder.MustGridAsym(1, 5), zorder.MustGrid(2, 32)} {
		ix := newTestIndex(t, g, 10)
		var s scratch
		sides := []uint64{g.SideOf(0), g.SideOf(1)}
		for _, q := range [][]uint32{{0, 0}, {1, 3}, {uint32(sides[0] - 1), uint32(sides[1] - 1)}, {uint32(sides[0] / 2), 1}} {
			for _, r := range []uint64{0, 1, 2, 3, 4, 5, 8, 31, 32, 33, 64, 1 << 31, 1<<32 - 1, 1 << 32, 1 << 35, math.MaxUint64} {
				box, whole := ix.ringBox(&s, q, r)
				covers := true
				for i := range q {
					lo, hi := uint64(0), sides[i]-1
					if uint64(q[i]) > r {
						lo = uint64(q[i]) - r
					}
					if r < hi-uint64(q[i]) {
						hi = uint64(q[i]) + r
					}
					if uint64(box.Lo[i]) != lo || uint64(box.Hi[i]) != hi {
						t.Fatalf("%v q=%v r=%d dim %d: [%d, %d], want [%d, %d]", g, q, r, i, box.Lo[i], box.Hi[i], lo, hi)
					}
					covers = covers && lo == 0 && hi == sides[i]-1
				}
				if whole != covers {
					t.Fatalf("%v q=%v r=%d: whole = %v, want %v", g, q, r, whole, covers)
				}
			}
		}
	}
}

// TestNearestHeapMatchesRank is the differential for the bounded heap:
// 500 seeded cases built to tie (many points per pixel, rings of
// points at one Euclidean distance in all four quadrants, m equal to
// and above the number of points), answered byte for byte as ranking
// everything answers them.
func TestNearestHeapMatchesRank(t *testing.T) {
	g := zorder.MustGrid(2, 7)
	// Offsets of one length (5, and 25 = 15-20-25) in every quadrant.
	ring := [][2]int{{5, 0}, {0, 5}, {3, 4}, {4, 3}, {15, 20}, {20, 15}, {25, 0}, {0, 25}, {7, 24}, {24, 7}}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := []uint32{uint32(30 + rng.Intn(60)), uint32(30 + rng.Intn(60))}
		var pts []geom.Point
		add := func(x, y int) {
			if x >= 0 && y >= 0 && x < 128 && y < 128 {
				pts = append(pts, geom.Pt2(uint64(rng.Int63n(1<<40))<<10|uint64(len(pts)), uint32(x), uint32(y)))
			}
		}
		for _, o := range ring {
			for _, sx := range []int{-1, 1} {
				for _, sy := range []int{-1, 1} {
					if rng.Intn(3) > 0 {
						add(int(q[0])+sx*o[0], int(q[1])+sy*o[1])
					}
				}
			}
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			x, y := rng.Intn(128), rng.Intn(128)
			for j, k := 0, 1+rng.Intn(4); j < k; j++ { // several ids on one pixel
				add(x, y)
			}
		}
		if len(pts) == 0 {
			add(int(q[0]), int(q[1]))
		}
		ix := newTestIndex(t, g, 4)
		if err := ix.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		ms := []int{1, 2, 1 + rng.Intn(len(pts)), len(pts), len(pts) + 3}
		for _, m := range ms {
			for _, metric := range []Metric{Chebyshev, Euclidean} {
				got, st, err := ix.Nearest(q, m, metric, allStrategies()[int(seed)%3])
				if err != nil {
					t.Fatal(err)
				}
				want := bruteNearest(pts, q, m, metric)
				if len(got) != len(want) || st.Results != len(want) {
					t.Fatalf("seed %d m=%d %v: %d neighbors (stats %d), want %d", seed, m, metric, len(got), st.Results, len(want))
				}
				for i := range want {
					if got[i].Dist != want[i].Dist || got[i].Point.ID != want[i].Point.ID ||
						got[i].Point.Coords[0] != want[i].Point.Coords[0] || got[i].Point.Coords[1] != want[i].Point.Coords[1] {
						t.Fatalf("seed %d m=%d %v q=%v: neighbor %d is %v, want %v", seed, m, metric, q, i, got[i], want[i])
					}
				}
			}
		}
	}
}
