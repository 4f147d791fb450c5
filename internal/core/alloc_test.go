//go:build !race

package core

import (
	"testing"

	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/zorder"
)

// The alloc gates (see internal/btree/alloc_test.go for why they stay
// out of -race builds): a warm search allocates its answer, and its
// machinery — cursors, page buffers, decomposition, NEAREST's
// candidates — comes from the scratch pool.

// gateIndex loads a lattice of points (ids 1.., one per 4x4 cell of
// the [0, span) square of a 256x256 grid) into a MemStore tree of the
// given geometry.
func gateIndex(t *testing.T, pageSize, leafCap int, span uint32) *Index {
	t.Helper()
	g := zorder.MustGrid(2, 8)
	pool := disk.MustPool(disk.MustMemStore(pageSize), 4096, disk.LRU)
	ix, err := NewIndex(pool, g, IndexConfig{LeafCapacity: leafCap})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(0)
	for x := uint32(0); x < span; x += 4 {
		for y := uint32(0); y < span; y += 4 {
			id++
			if err := ix.Insert(geom.Pt2(id, x, y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ix
}

func TestAllocGateRangeSearch(t *testing.T) {
	tall, flat := gateIndex(t, 512, 8, 256), gateIndex(t, 4096, 0, 256)
	if th, fh := tall.Tree().Height(), flat.Tree().Height(); th < 3 || fh >= th {
		t.Fatalf("heights %d and %d, want the first at least 3 and the second lower", th, fh)
	}
	box, hole := geom.Box2(100, 139, 100, 139), geom.Box2(1, 3, 1, 3) // 10x10 lattice points, and none
	counts := map[string][2]float64{}
	for h, ix := range []*Index{tall, flat} {
		snap := ix.Snapshot()
		defer snap.Release()
		measure := func(name string, search func() int) {
			search() // warm: the pool and a scratch with this tree's depth of buffers
			got := 0
			allocs := testing.AllocsPerRun(100, func() { got = search() })
			c := counts[name]
			c[h] = allocs
			counts[name] = c
			if got != 100 && name != "empty" {
				t.Fatalf("%s: %d results, want 100", name, got)
			}
		}
		measure("stream", func() int {
			st, err := snap.RangeSearchFuncCtx(nil, box, nil, func(geom.Point) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			return st.Results
		})
		measure("collect", func() int {
			pts, _, err := snap.RangeSearchCtx(nil, box, nil)
			if err != nil {
				t.Fatal(err)
			}
			return len(pts)
		})
		measure("pinned", func() int {
			pin := ix.Pin()
			defer pin.Release()
			pts, _, err := pin.RangeSearchCtx(nil, box, nil)
			if err != nil {
				t.Fatal(err)
			}
			return len(pts)
		})
		measure("empty", func() int {
			pts, _, err := snap.RangeSearchCtx(nil, hole, nil)
			if err != nil {
				t.Fatal(err)
			}
			return len(pts)
		})
	}
	// 100 streamed results: coordinate chunks of 8, 16, 32 and 64
	// points. Collected, the keys gather in the scratch and the answer
	// is allocated once at its length: the points and one coordinate
	// slab. Pinned by value in the scratch it searches with, the version
	// costs nothing more.
	want := map[string]float64{"stream": 4, "collect": 2, "pinned": 2, "empty": 0}
	for name, c := range counts {
		if c[0] != c[1] {
			t.Errorf("%s: %v allocs on the tall tree, %v on the flat one: the count must not depend on the height", name, c[0], c[1])
		}
		if c[0] != want[name] {
			t.Errorf("%s: %v allocs, want %v (the answer only)", name, c[0], want[name])
		}
	}
}

func TestAllocGateNearest(t *testing.T) {
	ix := gateIndex(t, 512, 8, 128)
	snap := ix.Snapshot()
	defer snap.Release()
	// The lattice ends at (124, 124). One step off a lattice point the
	// first box (radius 1) holds a neighbour: 2 searches with the
	// certifying one. At Chebyshev distance 12 from the lattice's
	// corner the boxes of radius 1, 2, 4 and 8 are empty: 6 searches.
	near, far := []uint32{101, 101}, []uint32{136, 136}
	work := func(q []uint32) int {
		_, st, err := snap.NearestCtx(nil, q, 1, Euclidean, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st.Seeks
	}
	if n, f := work(near), work(far); f <= n {
		t.Fatalf("%d seeks near, %d far: the far query must search more", n, f)
	}
	for name, q := range map[string][]uint32{"near": near, "far": far} {
		allocs := testing.AllocsPerRun(100, func() {
			if nbs, _, err := snap.NearestCtx(nil, q, 1, Euclidean, nil); err != nil || len(nbs) != 1 {
				t.Fatal(len(nbs), err)
			}
		})
		if allocs != 2 {
			t.Errorf("%s: NEAREST costs %v allocs, want 2 (the neighbors and their coordinates) whatever the number of rounds", name, allocs)
		}
	}
}
