package btree

import (
	"bytes"
	"errors"
	"testing"

	"probe/internal/disk"
)

// The page gates: exact page counts of the copy-on-write path. A batch
// copies each page of the published tree once and rewrites its own
// copies in place; published pages are never written. Page counts do
// not depend on the race detector, so these run in every build, and CI
// runs them beside the alloc gates, where a rise fails the build.

// auditStore records every Free the store refuses: a page freed twice,
// or one that was never allocated.
type auditStore struct {
	disk.Store
	badFrees []disk.PageID
}

func (s *auditStore) Free(id disk.PageID) error {
	err := s.Store.Free(id)
	if err != nil {
		s.badFrees = append(s.badFrees, id)
	}
	return err
}

// pageGateTree builds a tree of height 3 on keys 16, 32, ... so that
// neighbours of any key are absent and fall into its leaf.
func pageGateTree(t *testing.T) (*Tree, *auditStore) {
	t.Helper()
	store := &auditStore{Store: disk.MustMemStore(1024)}
	tree, err := New(disk.MustPool(store, 64, disk.LRU), Config{LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2500; i++ {
		if err := tree.Insert(Key{Hi: i * 16}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() != 3 {
		t.Fatalf("height %d, want 3", tree.Height())
	}
	return tree, store
}

// imageCopy returns a copy of page id's image.
func imageCopy(t *Tree, id disk.PageID) ([]byte, error) {
	data, err := t.pool.View(id, nil)
	return append([]byte(nil), data...), err
}

// reachableImages returns a copy of every page image reachable from
// the snapshot's root.
func reachableImages(t *testing.T, s *Snapshot) map[disk.PageID][]byte {
	t.Helper()
	images := make(map[disk.PageID][]byte)
	stack := []disk.PageID{s.v.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		data, err := imageCopy(s.t, id)
		if err != nil {
			t.Fatal(err)
		}
		images[id] = data
		if nodeType(data[0]) == internalType {
			p, err := viewInternal(data, s.t.keyLen)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p.children(); i++ {
				stack = append(stack, p.child(i))
			}
		}
	}
	return images
}

func sameImages(t *testing.T, what string, before, after map[disk.PageID][]byte) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("%s: %d pages reachable before, %d after", what, len(before), len(after))
	}
	for id, img := range before {
		if !bytes.Equal(img, after[id]) {
			t.Fatalf("%s: page %d changed", what, id)
		}
	}
}

func TestPageGateCommitBatch(t *testing.T) {
	t.Run("one path copy per batch", func(t *testing.T) {
		tree, store := pageGateTree(t)
		var muts []Mutation
		for i := uint64(1); i <= 8; i++ {
			muts = append(muts, Mutation{Key: Key{Hi: 20000 + i}})
		}
		pages, allocs := store.NumPages(), store.Stats().Allocs
		if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
			t.Fatal(err)
		}
		// The path once, plus the one leaf split 8 neighbours can cause;
		// one copy per mutation would be 8 x height.
		if got, max := int(store.Stats().Allocs-allocs), tree.Height()+1; got > max {
			t.Errorf("an 8-key batch allocated %d pages, want at most height+1 = %d", got, max)
		}
		if got := store.NumPages() - pages; got < 0 || got > 1 {
			t.Errorf("an 8-key batch changed the page count by %d, want 0 or 1", got)
		}
		if mv := tree.MVCCStats(); mv.RetainedPages != 0 || mv.FreeFailures != 0 {
			t.Errorf("with no snapshot open: %+v", mv)
		}
		if len(store.badFrees) != 0 {
			t.Errorf("store refused frees of pages %v", store.badFrees)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("a failed batch changes nothing", func(t *testing.T) {
		tree, store := pageGateTree(t)
		// Inserts that split, deletes that merge, then a duplicate.
		var muts []Mutation
		for i := uint64(1); i <= 12; i++ {
			muts = append(muts, Mutation{Key: Key{Hi: 8000 + i}})
		}
		for i := uint64(1000); i < 1060; i++ {
			muts = append(muts, Mutation{Key: Key{Hi: i * 16}, Delete: true})
		}
		muts = append(muts, Mutation{Key: Key{Hi: 8000 + 3}})

		snap := tree.Snapshot()
		before, pages, seq := reachableImages(t, snap), store.NumPages(), snap.Seq()
		snap.Release()
		if err := tree.CommitBatch(seq, muts); !errors.Is(err, ErrDuplicateKey) {
			t.Fatalf("batch ending in a duplicate: %v", err)
		}
		snap = tree.Snapshot()
		defer snap.Release()
		if snap.Seq() != seq {
			t.Fatalf("failed batch published version %d", snap.Seq())
		}
		sameImages(t, "failed batch", before, reachableImages(t, snap))
		if got := store.NumPages(); got != pages {
			t.Errorf("failed batch left %d pages, had %d", got, pages)
		}
		if len(store.badFrees) != 0 {
			t.Errorf("store refused frees of pages %v", store.badFrees)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("a pinned snapshot is never written", func(t *testing.T) {
		tree, store := pageGateTree(t)
		// 200 mutations: a run of deletes long enough to empty leaves
		// (borrows, merges, an internal rebalance) between inserts.
		var muts []Mutation
		for i := uint64(0); i < 100; i++ {
			muts = append(muts,
				Mutation{Key: Key{Hi: (600 + i) * 16}, Delete: true},
				Mutation{Key: Key{Hi: (600+i/4)*16 + 1 + i%4}})
		}
		snap := tree.Snapshot()
		defer snap.Release()
		before, leaves := reachableImages(t, snap), tree.LeafPages()
		if err := tree.CommitBatch(snap.Seq(), muts); err != nil {
			t.Fatal(err)
		}
		if tree.LeafPages() >= leaves {
			t.Fatalf("batch merged no leaf: %d -> %d", leaves, tree.LeafPages())
		}
		sameImages(t, "pinned snapshot", before, reachableImages(t, snap))
		if err := snap.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tree.Len() != snap.Len() {
			t.Fatalf("100 deletes and 100 inserts: Len %d -> %d", snap.Len(), tree.Len())
		}
		snap.Release()
		if n := tree.CollectGarbage(); n != 0 || len(store.badFrees) != 0 {
			t.Errorf("after release: %d pages retained, refused frees %v", n, store.badFrees)
		}
	})
}
