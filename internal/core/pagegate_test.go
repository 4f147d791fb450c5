package core

import (
	"testing"

	"probe/internal/disk"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// TestPageGateLeafDensity pins how many points a leaf holds: a stored
// key is the grid's z value in whole bytes plus the 8-byte id, behind
// a 3-byte page header, and a bulk load fills every leaf. The store's
// bytes per point follow from these two numbers, so a layout change
// that costs density fails here before it shows in the benchmark.
func TestPageGateLeafDensity(t *testing.T) {
	const n, pageSize = 50000, 4096
	for _, c := range []struct {
		dims, bits, stride int
	}{
		{2, 12, 3 + 8}, // the benchmark's grid: 372 points per leaf
		{1, 8, 1 + 8},
		{3, 21, 8 + 8}, // 63 bits round up to the full 8 bytes
		{2, 32, 8 + 8}, // 255 points per leaf
	} {
		g := zorder.MustGrid(c.dims, c.bits)
		pool := disk.MustPool(disk.MustMemStore(pageSize), 64, disk.LRU)
		ix, err := NewIndexBulk(pool, g, IndexConfig{}, workload.Uniform(g, n, 7), 0)
		if err != nil {
			t.Fatal(err)
		}
		capacity := (pageSize - 3) / c.stride
		if got := ix.Tree().LeafCapacity(); got != capacity {
			t.Errorf("%v: %d points per leaf, want %d (a %d-byte page of %d-byte entries)", g, got, capacity, pageSize, c.stride)
		}
		if got, want := ix.Tree().LeafPages(), (n+capacity-1)/capacity; got != want {
			t.Errorf("%v: %d leaves for %d points, want %d", g, got, n, want)
		}
		if err := ix.Tree().CheckInvariants(); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}
