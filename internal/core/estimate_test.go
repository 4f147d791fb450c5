package core

import (
	"math/rand"
	"testing"

	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// TestEstimatePagesTracksMerge pins the index's own price of a range
// search, EstimatePages, against the data pages the merge then reads.
// Uniform and clustered points on the benchmark's grid are bulk-loaded
// and inserted, at a derived leaf capacity and at the paper's 20, and
// boxes of every size from a few pixels to nearly the whole space are
// priced and run. A derived capacity on 1 KB pages gives a tree three
// levels deep. Summed over a tree's boxes the estimates are within 2 %
// of the merge's pages. Nearly every estimate is within max(2 pages,
// 10 %) of the merge's, and every one within max(3 pages, 15 %): a
// separator bounds a leaf's keys but does not say where they end, so
// an element in the gap between two leaves is priced on the one before
// while the merge's seek lands on the one after. The whole space is
// priced at every leaf, and the estimate reads internal pages only: on
// a cold pool its physical reads are at most the tree's internal
// pages.
func TestEstimatePagesTracksMerge(t *testing.T) {
	const boxes = 200
	g := zorder.MustGrid(2, 12)
	pts := workload.Uniform(g, 20000, 1)
	for _, p := range workload.Clustered(g, 100, 100, 40, 2) {
		p.ID += uint64(len(pts))
		pts = append(pts, p)
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name               string
		pageSize, capacity int
		inserted           int // 0: bulk-load every point
	}{
		{"bulk/derived", 4096, 0, 0},
		{"bulk/derived/1K", 1024, 0, 0},
		{"bulk/20", 4096, 20, 0},
		{"inserted/derived", 4096, 0, 12000},
		{"inserted/derived/1K", 1024, 0, 12000},
		{"inserted/20", 4096, 20, 12000},
	} {
		pool := disk.MustPool(disk.MustMemStore(c.pageSize), 4096, disk.LRU)
		var ix *Index
		var err error
		if c.inserted == 0 {
			ix, err = NewIndexBulk(pool, g, IndexConfig{LeafCapacity: c.capacity}, pts)
		} else if ix, err = NewIndex(pool, g, IndexConfig{LeafCapacity: c.capacity}); err == nil {
			for _, i := range rng.Perm(len(pts))[:c.inserted] {
				if err = ix.Insert(pts[i]); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		leaves := ix.Tree().LeafPages()

		// A cold scan of the whole space reads every page once: the
		// internal pages are its reads less the leaves.
		whole := geom.FullBox(g)
		cold := func() uint64 {
			pool.Invalidate()
			return pool.Stats().Misses
		}
		misses := cold()
		if _, _, err := ix.RangeSearch(whole, MergeLazy); err != nil {
			t.Fatal(err)
		}
		internal := int(pool.Stats().Misses-misses) - leaves
		misses = cold()
		est, err := ix.EstimatePages(whole)
		if err != nil {
			t.Fatal(err)
		}
		if reads := int(pool.Stats().Misses - misses); reads > internal || reads == 0 {
			t.Errorf("%s: the estimate read %d pages cold, want 1 to the %d internal pages", c.name, reads, internal)
		}
		if est != leaves {
			t.Errorf("%s: whole-space estimate %d, want the %d leaves", c.name, est, leaves)
		}

		var sumEst, sumActual, outside int
		for i := 0; i < boxes; i++ {
			side := [2]uint32{24 + uint32(rng.Intn(4000-24)), 24 + uint32(rng.Intn(4000-24))}
			if i%2 == 0 { // half the boxes small, where a page or two is the whole answer
				side = [2]uint32{24 + uint32(rng.Intn(200)), 24 + uint32(rng.Intn(200))}
			}
			x, y := uint32(rng.Intn(int(4096-side[0]))), uint32(rng.Intn(int(4096-side[1])))
			box := geom.Box2(x, x+side[0]-1, y, y+side[1]-1)
			est, err := ix.EstimatePages(box)
			if err != nil {
				t.Fatal(err)
			}
			_, stats, err := ix.RangeSearch(box, MergeLazy)
			if err != nil {
				t.Fatal(err)
			}
			sumEst += est
			sumActual += stats.DataPages
			d := abs(est - stats.DataPages)
			if 10*d > max(20, stats.DataPages) {
				outside++
			}
			if 20*d > max(60, 3*stats.DataPages) {
				t.Errorf("%s: %v: estimate %d pages, the merge read %d", c.name, box, est, stats.DataPages)
			}
		}
		if outside > boxes/100 {
			t.Errorf("%s: %d of %d estimates off by more than max(2 pages, 10 %%)", c.name, outside, boxes)
		}
		if r := float64(sumEst) / float64(sumActual); r < 0.98 || r > 1.02 {
			t.Errorf("%s: estimates sum to %.3fx the merge's pages", c.name, r)
		}
		t.Logf("%s: height %d, %d leaves, %d internal pages: estimates sum to %.3fx the merge's pages",
			c.name, ix.Tree().Height(), leaves, internal, float64(sumEst)/float64(sumActual))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
