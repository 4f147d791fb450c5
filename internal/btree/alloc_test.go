//go:build !race

package btree

import (
	"testing"

	"probe/internal/disk"
)

// The alloc gates: on a warm pool a read allocates nothing. They are
// exact counts, which the race detector's instrumentation disturbs,
// so the file is left out of -race builds; CI runs them as their own
// step (`go test -run TestAllocGate`), where a rise fails the build.

// allocGateTree builds a tree of height 3 that fits its pool.
func allocGateTree(t *testing.T) *Tree {
	t.Helper()
	pool := disk.MustPool(disk.MustMemStore(512), 4096, disk.LRU)
	tr, err := New(pool, Config{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(Key{Hi: i * 0x9E3779B97F4A7C15, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d, want at least 3", tr.Height())
	}
	return tr
}

func TestAllocGateSeekGE(t *testing.T) {
	tr := allocGateTree(t)
	snap := tr.Snapshot()
	defer snap.Release()
	cur := snap.Cursor()
	i := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		if ok, err := cur.SeekGE(Key{Hi: i * 0xD1B54A32D192ED03}); err != nil || (ok && cur.Key().Hi == 0) {
			t.Fatal(ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("SeekGE on a warm pool costs %v allocs, want 0", allocs)
	}
	if n := tr.pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after SeekGE", n)
	}
}

func TestAllocGateGet(t *testing.T) {
	tr := allocGateTree(t)
	i := uint64(0)
	allocs := testing.AllocsPerRun(500, func() {
		i++
		// Every other key is present.
		k := Key{Hi: (i / 2) * 0x9E3779B97F4A7C15, Lo: i/2 + i%2}
		if _, ok, err := tr.Get(k); err != nil || ok != (i%2 == 0) {
			t.Fatal(k, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Get on a warm pool costs %v allocs, want 0", allocs)
	}
	if n := tr.pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after Get", n)
	}
}

// TestAllocGateNextAcrossLeaves scans the whole tree, so Next crosses
// every leaf boundary and every internal one.
func TestAllocGateNextAcrossLeaves(t *testing.T) {
	tr := allocGateTree(t)
	snap := tr.Snapshot()
	defer snap.Release()
	cur := snap.Cursor()
	leaves := 0
	allocs := testing.AllocsPerRun(5, func() {
		ok, err := cur.First()
		leaves = 0
		for last := disk.InvalidPage; ok && err == nil; ok, err = cur.Next() {
			if cur.LeafID() != last {
				last = cur.LeafID()
				leaves++
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if leaves != snap.LeafPages() {
		t.Fatalf("scan saw %d leaves of %d", leaves, snap.LeafPages())
	}
	if allocs != 0 {
		t.Errorf("a scan over %d leaves on a warm pool costs %v allocs, want 0", leaves, allocs)
	}
	if n := tr.pool.Pinned(); n != 0 {
		t.Errorf("%d pages pinned after the scan", n)
	}
}
