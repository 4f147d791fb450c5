package btree

import (
	"math/rand"
	"testing"

	"probe/internal/disk"
)

func sortedEntries(n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i].Key = Key{Hi: uint64(i) * 3, Lo: uint64(i)}
	}
	return es
}

func TestLoadEmpty(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 64, disk.LRU)
	tree, err := Load(pool, Config{LeafCapacity: 4}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 0 || tree.Height() != 1 {
		t.Errorf("empty load wrong")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSingleLeaf(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 64, disk.LRU)
	tree, err := Load(pool, Config{LeafCapacity: 8}, sortedEntries(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 5 || tree.Height() != 1 || tree.LeafPages() != 1 {
		t.Errorf("single leaf load: len=%d h=%d leaves=%d", tree.Len(), tree.Height(), tree.LeafPages())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadLargeAndScan(t *testing.T) {
	for _, n := range []int{1, 2, 7, 20, 21, 399, 5000} {
		pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
		es := sortedEntries(n)
		tree, err := Load(pool, Config{LeafCapacity: 20}, es, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tree.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tree.Len())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		snap := tree.Snapshot()
		c := snap.Cursor()
		i := 0
		for ok, err := c.First(); ok; ok, err = c.Next() {
			if err != nil {
				t.Fatal(err)
			}
			if c.Key() != es[i].Key {
				t.Fatalf("n=%d: scan key %v at %d, want %v", n, c.Key(), i, es[i].Key)
			}
			i++
		}
		snap.Release()
		if i != n {
			t.Fatalf("n=%d: scan saw %d entries", n, i)
		}
	}
}

func TestLoadPacksTighterThanInsert(t *testing.T) {
	es := sortedEntries(5000)
	poolA := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	loaded, err := Load(poolA, Config{LeafCapacity: 20}, es, 0)
	if err != nil {
		t.Fatal(err)
	}
	poolB := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	inserted, err := New(poolB, Config{LeafCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if err := inserted.Insert(e.Key, nil); err != nil {
			t.Fatal(err)
		}
	}
	if loaded.LeafPages() >= inserted.LeafPages() {
		t.Errorf("bulk load should pack tighter: %d vs %d leaves",
			loaded.LeafPages(), inserted.LeafPages())
	}
	// Full fill: exactly ceil(5000/20) leaves.
	if loaded.LeafPages() != 250 {
		t.Errorf("full-fill load has %d leaves, want 250", loaded.LeafPages())
	}
}

func TestLoadWithFill(t *testing.T) {
	es := sortedEntries(1000)
	pool := disk.MustPool(disk.MustMemStore(1024), 256, disk.LRU)
	tree, err := Load(pool, Config{LeafCapacity: 20}, es, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// ~10 entries per leaf.
	if tree.LeafPages() < 90 || tree.LeafPages() > 110 {
		t.Errorf("half-fill load has %d leaves, want ~100", tree.LeafPages())
	}
	if _, err := Load(pool, Config{LeafCapacity: 20}, es, 0.2); err == nil {
		t.Errorf("fill below 0.5 accepted")
	}
	if _, err := Load(pool, Config{LeafCapacity: 20}, es, 1.5); err == nil {
		t.Errorf("fill above 1 accepted")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 64, disk.LRU)
	dup := []Entry{{Key: Key{Hi: 1}}, {Key: Key{Hi: 1}}}
	if _, err := Load(pool, Config{LeafCapacity: 4}, dup, 0); err == nil {
		t.Errorf("duplicate keys accepted")
	}
	unsorted := []Entry{{Key: Key{Hi: 2}}, {Key: Key{Hi: 1}}}
	if _, err := Load(pool, Config{LeafCapacity: 4}, unsorted, 0); err == nil {
		t.Errorf("unsorted keys accepted")
	}
}

// TestLoadThenMutate: a bulk-loaded tree must behave identically to
// an insert-built one under subsequent inserts and deletes.
func TestLoadThenMutate(t *testing.T) {
	es := sortedEntries(500)
	pool := disk.MustPool(disk.MustMemStore(512), 256, disk.LRU)
	tree, err := Load(pool, Config{LeafCapacity: 6}, es, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	ref := make(map[Key]bool, len(es))
	for _, e := range es {
		ref[e.Key] = true
	}
	for step := 0; step < 2000; step++ {
		k := Key{Hi: uint64(rng.Intn(1600)), Lo: uint64(rng.Intn(534))}
		if rng.Intn(2) == 0 {
			err := tree.Insert(k, nil)
			if ref[k] {
				if err != ErrDuplicateKey {
					t.Fatalf("step %d: %v", step, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: %v", step, err)
			} else {
				ref[k] = true
			}
		} else {
			ok, err := tree.Delete(k)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if ok != ref[k] {
				t.Fatalf("step %d: delete mismatch", step)
			}
			delete(ref, k)
		}
		if step%499 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tree.Len() != len(ref) {
		t.Errorf("Len=%d ref=%d", tree.Len(), len(ref))
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkSizes(t *testing.T) {
	cases := []struct {
		n, target, min int
		chunks         int
	}{
		{0, 10, 5, 0},
		{5, 10, 5, 1},
		{10, 10, 5, 1},
		{11, 10, 5, 2},
		{100, 10, 5, 10},
		{11, 10, 9, 1},  // min forces fewer chunks
		{19, 10, 10, 1}, // cannot make 2 chunks of >= 10
	}
	for _, c := range cases {
		sizes := chunkSizes(c.n, c.target, c.min)
		if len(sizes) != c.chunks {
			t.Errorf("chunkSizes(%d,%d,%d) = %v, want %d chunks", c.n, c.target, c.min, sizes, c.chunks)
		}
		sum := 0
		for i, s := range sizes {
			sum += s
			if len(sizes) > 1 && s < c.min {
				t.Errorf("chunkSizes(%d,%d,%d)[%d] = %d underflows", c.n, c.target, c.min, i, s)
			}
		}
		if sum != c.n {
			t.Errorf("chunkSizes(%d,%d,%d) sums to %d", c.n, c.target, c.min, sum)
		}
	}
}
