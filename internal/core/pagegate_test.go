package core

import (
	"math/rand"
	"testing"

	"probe/internal/btree"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// TestPageGateLeafDensity pins how many leaves a bulk load of 50 000
// uniform points fills, and so the store's bytes per point. A leaf
// stores each key's z as its gap from the previous key's z, and its id
// as a distance from the leaf's smallest id, in as many bits as the
// widest gap and distance need, behind a header that holds that frame
// and the bases of its blocks of 32 entries (internal/btree). A derived capacity
// packs a leaf by its bytes alone, up to the 65 535 entries its header
// counts. An explicit capacity cuts leaves by count alone, as it did
// before keys were framed, so the paper's 20 points per page gives
// exactly its old leaves. A layout change that costs density fails
// here before it shows in the benchmark.
func TestPageGateLeafDensity(t *testing.T) {
	const n, pageSize = 50000, 4096
	for _, c := range []struct {
		dims, bits, capacity int
		leaves               int
	}{
		// The benchmark's grid: 3.6 bytes of leaf per point; 48 leaves
		// (3.9 bytes) with z distances from a base per 32-entry block, 54
		// (4.4 bytes) with z deltas from the leaf's first key, 68 (5.6
		// bytes) in whole-byte fields under a count cap of 739, 135 (11.1
		// bytes) with every key at its full 11 bytes.
		{2, 12, 0, 44},
		{1, 8, 0, 27},   // 31 from the leaf's first key, 56 under a count cap of 905
		{3, 21, 0, 114}, // 123 from the leaf's first key, whose 63-bit z delta kept its fields in whole bytes
		{2, 32, 0, 114}, // 122 from the leaf's first key, 123 in whole-byte fields
		{2, 12, 20, 2500},
	} {
		g := zorder.MustGrid(c.dims, c.bits)
		pool := disk.MustPool(disk.MustMemStore(pageSize), 64, disk.LRU)
		ix, err := NewIndexBulk(pool, g, IndexConfig{LeafCapacity: c.capacity}, workload.Uniform(g, n, 7), 0)
		if err != nil {
			t.Fatal(err)
		}
		capacity := c.capacity
		if capacity == 0 {
			capacity = 65535
		}
		if got := ix.Tree().LeafCapacity(); got != capacity {
			t.Errorf("%v: capacity %d, want %d", g, got, capacity)
		}
		if got := ix.Tree().LeafPages(); got != c.leaves {
			t.Errorf("%v, capacity %d: %d leaves for %d points (%.2f bytes per point), want %d (%.2f)", g, c.capacity,
				got, n, float64(got*pageSize)/n, c.leaves, float64(c.leaves*pageSize)/n)
		}
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

// TestPageGateBulkLeafDensity pins the leaves a bulk load of the
// benchmark's data set fills: 200 000 points on its 2 x 12-bit grid,
// half uniform and half in Gaussian clusters of 500, one point a
// pixel, ids 1 to n in that order, on 4 KiB pages at a derived
// capacity: 176 leaves, 3.65 bytes per point. Z distances from a base
// per 32-entry block rather than gaps from the previous key filled 191
// (3.96), z deltas from the leaf's first key 211 (4.37), and whole-byte
// key fields under a count cap of 739 276 (5.72).
func TestPageGateBulkLeafDensity(t *testing.T) {
	const n, pageSize = 200000, 4096
	g := zorder.MustGrid(2, 12)
	pts := workload.Uniform(g, n/2, 1)
	pts = workload.Dedupe(g, append(pts, workload.Clustered(g, n/2/500, 500, 48, 2)...))
	for i := range pts {
		pts[i].ID = uint64(i + 1)
	}
	pool := disk.MustPool(disk.MustMemStore(pageSize), 64, disk.LRU)
	ix, err := NewIndexBulk(pool, g, IndexConfig{}, pts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Tree().LeafPages(), 176; got != want {
		t.Errorf("%d points in %d leaves (%.2f bytes per point), want %d (%.2f)", len(pts), got,
			float64(got*pageSize)/float64(len(pts)), want, float64(want*pageSize)/float64(len(pts)))
	}
	if err := ix.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPageGateInsertedLeafDensity pins how many leaves a bulk-loaded
// index has after writes near its data: 150 batches of 8 points, each
// within 64 pixels of a stored one, on the benchmark's grid at a
// derived capacity. The bulk load packs its leaves to their bytes, so
// nearly every leaf the writes reach overflows; it spreads over its
// neighbours before it adds a leaf (internal/btree), which keeps the
// leaves full: 54 leaves, where z distances from a base per 32-entry
// block left 58, z deltas from the leaf's first key 67, whole-byte key
// fields under a count cap 85, sharing with one sibling 95 and
// splitting each full leaf in half 135. New ids from 2^40 take a second
// id base rather than 41-bit id deltas, and the benchmark's own ids,
// two connections' counters from 2^40 and 2^40 + 2^32 interleaved, a
// third: 54 leaves too (58 from a block's base, 67 from the leaf's
// first key, 85 in whole bytes, 98 with one sibling).
func TestPageGateInsertedLeafDensity(t *testing.T) {
	const n, pageSize = 50000, 4096
	g := zorder.MustGrid(2, 12)
	for _, c := range []struct {
		firstID uint64
		conns   int
		leaves  int
	}{
		{1 << 20, 1, 54},
		{1 << 40, 1, 54},
		{1 << 40, 2, 54},
	} {
		pts := workload.Uniform(g, n, 7)
		pool := disk.MustPool(disk.MustMemStore(pageSize), 64, disk.LRU)
		ix, err := NewIndexBulk(pool, g, IndexConfig{}, pts, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		near := func(x uint32) uint32 {
			return uint32(min(max(int64(x)+rng.Int63n(129)-64, 0), int64(g.Side()-1)))
		}
		m := 0
		for b := 0; b < 150; b++ {
			muts := make([]btree.Mutation, 8)
			for i := range muts {
				p := pts[rng.Intn(n)]
				id := c.firstID + uint64(m%c.conns)<<32 + uint64(m/c.conns)
				if muts[i].Key, err = ix.Key(geom.Point{ID: id, Coords: []uint32{near(p.Coords[0]), near(p.Coords[1])}}); err != nil {
					t.Fatal(err)
				}
				m++
			}
			if err := ix.Tree().CommitBatch(ix.Tree().MVCCStats().Seq, muts); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := ix.Tree().LeafPages(); got != c.leaves {
			t.Errorf("new ids from %#x over %d connections: %d leaves for %d points, want %d", c.firstID, c.conns, got, ix.Len(), c.leaves)
		}
	}
}

// TestPageGateRangeWalk pins the page walk of fixed range searches on
// a warm pool: per RANGE, its pool gets, its descents from the root
// (obs.Descents), the internal nodes it visits and the leaves it scans,
// beside the points it finds. The data sets are bulk loads of uniform
// points on the benchmark's grid, one at the paper's 20 points per leaf
// (height 3) and one at a derived capacity (height 2). The walk depends
// only on the tree's shape and the order of its separators, so a change
// to how an internal page stores them must leave every count as it is.
func TestPageGateRangeWalk(t *testing.T) {
	const pageSize = 4096
	g := zorder.MustGrid(2, 12)
	boxes := []geom.Box{
		geom.Box2(0, 4095, 0, 4095),
		geom.Box2(1000, 1100, 2000, 2100),
		geom.Box2(0, 4095, 1500, 1540),
		geom.Box2(3000, 3010, 0, 4095),
		geom.Box2(2047, 2048, 2047, 2048),
	}
	type walk struct{ gets, descents, visits, scans, results int64 }
	for _, c := range []struct {
		n, capacity, height int
		want                []walk // by box
	}{
		{20000, 20, 3, []walk{
			{1006, 1, 6, 1000, 20000},
			{17, 5, 10, 7, 17},
			{281, 85, 170, 111, 208},
			{140, 41, 82, 58, 68},
			{12, 4, 8, 4, 0},
		}},
		{50000, 0, 2, []walk{
			{45, 1, 1, 44, 50000},
			{8, 4, 4, 4, 30},
			{27, 13, 13, 14, 497},
			{16, 8, 8, 8, 161},
			{8, 4, 4, 4, 0},
		}},
	} {
		pool := disk.MustPool(disk.MustMemStore(pageSize), 2048, disk.LRU)
		ix, err := NewIndexBulk(pool, g, IndexConfig{LeafCapacity: c.capacity}, workload.Uniform(g, c.n, 5), 0)
		if err != nil {
			t.Fatal(err)
		}
		if h := ix.Tree().Height(); h != c.height {
			t.Fatalf("capacity %d: height %d, want %d", c.capacity, h, c.height)
		}
		for i, box := range boxes {
			if _, _, err := ix.RangeSearchCtx(nil, box, nil); err != nil { // warms the pool
				t.Fatal(err)
			}
			sp := obs.New("range")
			pts, _, err := ix.RangeSearchCtx(nil, box, sp)
			if err != nil {
				t.Fatal(err)
			}
			if m := sp.Get(obs.PoolMisses); m != 0 {
				t.Errorf("capacity %d, %v: %d pool misses on a warm pool", c.capacity, box, m)
			}
			got := walk{sp.Get(obs.PoolGets), sp.Get(obs.Descents), sp.Get(obs.NodeVisits), sp.Get(obs.LeafScans), int64(len(pts))}
			if got != c.want[i] {
				t.Errorf("capacity %d, %v: walk %+v, want %+v", c.capacity, box, got, c.want[i])
			}
		}
	}
}
