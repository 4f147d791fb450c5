package core

import (
	"testing"

	"probe/internal/disk"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// TestPageGateLeafDensity pins how many leaves a bulk load of 50 000
// uniform points fills, and so the store's bytes per point. A leaf
// stores each key as its distance from the leaf's first z value and
// smallest id, in as many bytes as the widest distance needs, behind a
// header that holds that frame (internal/btree). A derived capacity
// packs a leaf by bytes, up to a count cap of twice the keys that fit
// the page at full width, less one. An explicit capacity cuts leaves by
// count alone, as it did before keys were framed, so the paper's 20
// points per page gives exactly its old leaves. A layout change that
// costs density fails here before it shows in the benchmark.
func TestPageGateLeafDensity(t *testing.T) {
	const n, pageSize = 50000, 4096
	for _, c := range []struct {
		dims, bits, capacity int
		leaves               int
	}{
		// The benchmark's grid: 5.6 bytes of leaf per point; 135 leaves
		// (11.1 bytes) with every key at its full 11 bytes.
		{2, 12, 0, 68},
		{1, 8, 0, 56},   // at the count cap of 905
		{3, 21, 0, 123}, // 63 bits round up to the full 8 z bytes
		{2, 32, 0, 123},
		{2, 12, 20, 2500},
	} {
		g := zorder.MustGrid(c.dims, c.bits)
		pool := disk.MustPool(disk.MustMemStore(pageSize), 64, disk.LRU)
		ix, err := NewIndexBulk(pool, g, IndexConfig{LeafCapacity: c.capacity}, workload.Uniform(g, n, 7), 0)
		if err != nil {
			t.Fatal(err)
		}
		keyLen := (g.TotalBits()+7)/8 + 8
		capacity := c.capacity
		if capacity == 0 {
			capacity = 2*((pageSize-5-keyLen)/keyLen) - 1
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
