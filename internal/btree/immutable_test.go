package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"probe/internal/disk"
)

// TestHeldViewsNeverChange guards the condition a reader's page views
// rest on: a page image handed out by the pool never changes, so a
// cursor may hold it without a pin or a copy (disk.Pool). Cursors on
// snapshots of a tree on a small pool keep every view they are handed
// beside a private copy, while inserts, deletes, snapshot releases
// with garbage collection and a stream of misses evict frames and hand
// freed page ids out again. Every held view must still equal its copy.
func TestHeldViewsNeverChange(t *testing.T) {
	tree := newTestTree(t, 512, 6, 8)
	rng := rand.New(rand.NewSource(46))

	type held struct {
		id         disk.PageID
		view, copy []byte
	}
	var views []held
	seen := map[*byte]bool{}
	keep := func(id disk.PageID, data []byte) {
		if !seen[&data[0]] {
			seen[&data[0]] = true
			views = append(views, held{id, data, append([]byte(nil), data...)})
		}
	}
	// collect keeps the views on c's path, the leaf's with its id.
	collect := func(c *Cursor) {
		for _, l := range c.stack {
			keep(disk.InvalidPage, l.page.data)
		}
		if c.valid {
			keep(c.id, c.leaf.data)
		}
	}

	var live []Key
	insert := func() {
		k := Key{Hi: rng.Uint64(), Lo: uint64(len(live))}
		if err := tree.Insert(k, nil); err != nil {
			t.Fatal(err)
		}
		live = append(live, k)
	}
	for i := 0; i < 300; i++ {
		insert()
	}
	var snaps []*Snapshot
	for round := 0; round < 60; round++ {
		s := tree.Snapshot()
		snaps = append(snaps, s)
		c := s.Cursor()
		for j := 0; j < 4; j++ {
			ok, err := c.SeekGE(Key{Hi: rng.Uint64()})
			for k := 0; err == nil && ok && k < 8; k++ {
				collect(c)
				ok, err = c.Next()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 8; j++ {
			insert()
		}
		var muts []Mutation
		for j := 0; j < 6; j++ {
			i := rng.Intn(len(live))
			muts = append(muts, Mutation{Key: live[i], Delete: true})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 3 {
			snaps[0].Release()
			snaps = snaps[1:]
			tree.CollectGarbage()
		}
	}
	for _, s := range snaps {
		s.Release()
	}
	tree.CollectGarbage()
	for i := 0; i < 200; i++ {
		insert()
	}

	reused := 0
	for _, h := range views {
		if h.id == disk.InvalidPage {
			if !bytes.Equal(h.view, h.copy) {
				t.Fatal("a held view of an internal page changed")
			}
			continue
		}
		if !bytes.Equal(h.view, h.copy) {
			t.Fatalf("a held view of leaf %d changed", h.id)
		}
		if now, err := tree.pool.View(h.id, nil); err == nil && !bytes.Equal(now, h.copy) {
			reused++
		}
	}
	st := tree.pool.Stats()
	t.Logf("%d views held, %d of them of leaves whose ids now hold another image; %d evictions, %d pages freed",
		len(views), reused, st.Evictions, tree.MVCCStats().FreedPages)
	if reused == 0 || st.Evictions == 0 {
		t.Fatal("the run neither reused a held page's id nor evicted a frame")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
