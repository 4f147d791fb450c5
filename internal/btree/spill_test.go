package btree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"probe/internal/disk"
)

// TestExplicitCapacityShapes pins the leaves a seeded mix of inserts,
// deletes and batches leaves at each explicit capacity, and those a
// seeded run of inserts alone leaves: the hash of every leaf's first
// key and count. An explicit capacity cuts leaves by count alone and
// splits a full leaf in half, whatever frames its keys need, so the
// paper's 20 points per page give its old leaves. The insert-only
// constants were recorded before derived capacities learned to share a
// full leaf with its neighbour, and before an underfull leaf was re-cut
// with its neighbours; they must not move. The mixed ones were last
// re-pinned when underflow became that re-cut.
func TestExplicitCapacityShapes(t *testing.T) {
	for _, c := range []struct {
		capacity          int
		insertOnly, mixed uint64
	}{
		// capacity, insert-only hash and mixed hash, and their leaves
		{2, 0x7b998559da676746, 0x53fb495e8c722512},  // 6 662, 1 756
		{3, 0xa5dab5cd975deccc, 0x1ef60b07659ebd95},  // 4 409, 1 240
		{4, 0xeda8e9ad6de8a1b2, 0xd3a1e634652bde7e},  // 3 473, 810
		{8, 0x756d7eb8d74d3aa4, 0x2d074024fc2982d6},  // 1 805, 430
		{20, 0xbc94dbae93205054, 0xc0ca150cecf1521c}, // 730, 169
	} {
		for _, mixed := range []bool{false, true} {
			want := c.insertOnly
			if mixed {
				want = c.mixed
			}
			explicitCapacityShape(t, c.capacity, mixed, want)
		}
	}
}

// explicitCapacityShape runs the seeded writes of
// TestExplicitCapacityShapes at one capacity, with deletes when mixed,
// and checks the hash of the leaves they leave.
func explicitCapacityShape(t *testing.T, capacity int, mixed bool, want uint64) {
	t.Helper()
	tree := newTestTree(t, 512, capacity, 256)
	rng := rand.New(rand.NewSource(int64(capacity)))
	stored := map[Key]bool{}
	var keys []Key
	// Ids of mixed widths give neighbouring leaves different frames.
	fresh := func() Key {
		for {
			k := Key{Hi: rng.Uint64() >> uint(rng.Intn(40)), Lo: rng.Uint64() >> uint(8*rng.Intn(8))}
			if !stored[k] {
				return k
			}
		}
	}
	add := func(k Key) { stored[k] = true; keys = append(keys, k) }
	pick := func() Key {
		i := rng.Intn(len(keys))
		k := keys[i]
		keys[i] = keys[len(keys)-1]
		keys = keys[:len(keys)-1]
		delete(stored, k)
		return k
	}
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(keys) < 16 || (!mixed && r < 8):
			k := fresh()
			if err := tree.Insert(k, nil); err != nil {
				t.Fatal(err)
			}
			add(k)
		case r < 8:
			k := pick()
			if ok, err := tree.Delete(k); !ok || err != nil {
				t.Fatalf("Delete(%v) = %v, %v", k, ok, err)
			}
		default:
			var muts []Mutation
			var added []Key
			for j := rng.Intn(8) + 1; j > 0; j-- {
				if rng.Intn(2) == 0 && mixed {
					muts = append(muts, Mutation{Key: pick(), Delete: true})
				} else {
					k := fresh()
					stored[k] = true
					added = append(added, k)
					muts = append(muts, Mutation{Key: k})
				}
			}
			if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, added...)
		}
		if step%1000 == 999 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("capacity %d, mixed %v, step %d: %v", capacity, mixed, step, err)
			}
		}
	}
	if tree.Len() != len(keys) {
		t.Fatalf("capacity %d, mixed %v: %d entries, want %d", capacity, mixed, tree.Len(), len(keys))
	}
	h := fnv.New64a()
	var b [20]byte
	snap := tree.Snapshot()
	c := snap.Cursor()
	for ok, err := c.First(); ok || err != nil; ok, err = c.Next() {
		if err != nil {
			t.Fatal(err)
		}
		if c.pos == 0 {
			k := c.Key()
			binary.BigEndian.PutUint64(b[:8], k.Hi)
			binary.BigEndian.PutUint64(b[8:16], k.Lo)
			binary.BigEndian.PutUint32(b[16:], uint32(c.leaf.count))
			h.Write(b[:])
		}
	}
	snap.Release()
	if got := h.Sum64(); got != want {
		t.Errorf("capacity %d, mixed %v: %d leaves hash to %#x, want %#x", capacity, mixed, tree.LeafPages(), got, want)
	}
}

// leafCounts returns the entry count of each leaf, in key order, and
// its page.
func leafCounts(t *testing.T, tree *Tree) ([]int, []disk.PageID) {
	t.Helper()
	var counts []int
	var ids []disk.PageID
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	for ok, err := c.First(); ok || err != nil; ok, err = c.Next() {
		if err != nil {
			t.Fatal(err)
		}
		if c.pos == 0 {
			counts = append(counts, c.leaf.count)
			ids = append(ids, c.LeafID())
		}
	}
	return counts, ids
}

// pageImages copies every page of the snapshot's version, by id.
func pageImages(t *testing.T, s *Snapshot) map[disk.PageID][]byte {
	t.Helper()
	images := map[disk.PageID][]byte{}
	for ids := []disk.PageID{s.v.root}; len(ids) > 0; {
		id := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
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
				ids = append(ids, p.child(i))
			}
		}
	}
	return images
}

// spillInsert inserts k into the tree with a snapshot pinned, and
// checks that the snapshot's pages did not move: the neighbours a full
// leaf spreads over are copy-on-write too. It returns the leaf counts
// before and after.
func spillInsert(t *testing.T, tree *Tree, k Key) (before, after []int) {
	t.Helper()
	return spillWrite(t, tree, func() error { return tree.Insert(k, nil) })
}

// spillWrite is spillInsert for any write.
func spillWrite(t *testing.T, tree *Tree, write func() error) (before, after []int) {
	t.Helper()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	before, _ = leafCounts(t, tree)
	s := tree.Snapshot()
	defer s.Release()
	images := pageImages(t, s)
	if err := write(); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pageImages(t, s), images) {
		t.Error("the insert rewrote a page of the pinned snapshot")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	after, _ = leafCounts(t, tree)
	for _, n := range after {
		if n < tree.minLeaf {
			t.Errorf("a leaf of %d entries, under minLeaf %d: %v", n, tree.minLeaf, after)
		}
	}
	return before, after
}

// loadSpillTree bulk-loads keys Hi(i), Lo(i) for i < n at the fill on
// 512-byte pages at a derived capacity.
func loadSpillTree(t *testing.T, keyBits, n int, fill float64, hi, lo func(i int) uint64) *Tree {
	t.Helper()
	return loadTree(t, 512, keyBits, n, fill, hi, lo)
}

// loadTree is loadSpillTree on pages of pageSize bytes.
func loadTree(t *testing.T, pageSize, keyBits, n int, fill float64, hi, lo func(i int) uint64) *Tree {
	t.Helper()
	es := make([]Entry, n)
	for i := range es {
		es[i].Key = Key{Hi: hi(i), Lo: lo(i)}
	}
	tree, err := Load(disk.MustPool(disk.MustMemStore(pageSize), 256, disk.LRU), Config{KeyBits: keyBits}, es, fill)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// fullLeaf returns how many of the keys Hi(i), Lo(i) from i = 0 fill
// one leaf on a page of pageSize bytes: a bulk load of twice as many
// keys puts that many in its first leaf.
func fullLeaf(t *testing.T, pageSize, keyBits int, hi, lo func(i int) uint64) int {
	t.Helper()
	counts, _ := leafCounts(t, loadTree(t, pageSize, keyBits, 2*pageSize, 1, hi, lo))
	return counts[0]
}

// TestLeafSpill: at a derived capacity a leaf that overflows spreads
// over its window, itself and its neighbours under the same parent,
// into as many leaves or one more, before it is cut alone. On a
// 512-byte page an 11-byte key gives minCap 44 and minLeaf 22, and the
// loaded keys, z 8i and id i, take 12 bits an entry (4-bit z gaps and
// 8-bit id fields) and an 11-bit block base for every 32 in a run of
// 129 to 256 of them, and 13 bits and 12-bit bases in one of 257 to
// 512: a leaf holds 155 at half the page and 295 at all of it. An
// inserted key between two loaded ones, into(i), keeps a leaf's frame,
// so one more key overflows a full leaf by its bytes.
func TestLeafSpill(t *testing.T) {
	step := func(i int) uint64 { return uint64(8*i) << 40 }
	id := func(i int) uint64 { return uint64(i) }
	// into is a key that lands after the i-th loaded key.
	into := func(i int) Key { return Key{Hi: step(i) + 1<<40, Lo: uint64(i)} }
	spill := func(t *testing.T, tree *Tree, k Key, was, want []int) {
		t.Helper()
		before, after := spillInsert(t, tree, k)
		if !reflect.DeepEqual(before, was) || !reflect.DeepEqual(after, want) {
			t.Fatalf("leaves %v became %v, want %v to become %v", before, after, was, want)
		}
	}

	t.Run("redistribute", func(t *testing.T) {
		// Two leaves of 155; the right one fills its page with inserts,
		// then overflows into its left sibling.
		tree := loadSpillTree(t, 24, 310, 0.5, step, id)
		for i := 310; i < 450; i++ {
			if err := tree.Insert(Key{Hi: step(i), Lo: id(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		spill(t, tree, Key{Hi: step(450), Lo: id(450)}, []int{155, 295}, []int{225, 226})
		// The root's one separator lies between the two pieces.
		data, err := tree.pool.View(tree.currentVersion().root, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := viewInternal(data, tree.keyLen)
		if err != nil {
			t.Fatal(err)
		}
		sep := p.sep(0)
		snap := tree.Snapshot()
		defer snap.Release()
		c := snap.Cursor()
		if ok, err := c.First(); !ok || err != nil {
			t.Fatal(ok, err)
		}
		for i := 1; i < 225; i++ {
			c.Next()
		}
		leftMax := c.Key()
		c.Next()
		if !leftMax.Less(sep) || c.Key().Less(sep) {
			t.Errorf("separator %v is not between %v and %v", sep, leftMax, c.Key())
		}
	})

	t.Run("split three ways", func(t *testing.T) {
		// Two full leaves: the pair cannot fit two, so it becomes three.
		spill(t, loadSpillTree(t, 24, 590, 1, step, id), into(10), []int{295, 295}, []int{197, 197, 197})
	})

	t.Run("four from three", func(t *testing.T) {
		// A full leaf between two full neighbours: the window of three
		// cannot fit three leaves, so it becomes four.
		spill(t, loadSpillTree(t, 24, 885, 1, step, id), into(300), []int{295, 295, 295}, []int{221, 222, 221, 222})
	})

	t.Run("room on one side", func(t *testing.T) {
		// A full leaf whose right neighbour has room: the window keeps its
		// three leaves.
		spill(t, loadSpillTree(t, 24, 690, 1, step, id), into(300), []int{295, 295, 100}, []int{230, 230, 231})
	})

	t.Run("edge of the parent", func(t *testing.T) {
		// The first child's window is itself and its right neighbour; the
		// third leaf keeps its page.
		tree := loadSpillTree(t, 24, 885, 1, step, id)
		_, was := leafCounts(t, tree)
		spill(t, tree, into(10), []int{295, 295, 295}, []int{197, 197, 197, 295})
		if _, ids := leafCounts(t, tree); ids[3] != was[2] {
			t.Errorf("the leaf outside the window moved from page %d to %d", was[2], ids[3])
		}
	})

	t.Run("single-leaf window", func(t *testing.T) {
		// A full root leaf has no neighbour: it splits in half.
		spill(t, loadSpillTree(t, 24, 295, 1, step, id), into(10), []int{295}, []int{148, 148})
	})

	t.Run("a delete widens the gaps", func(t *testing.T) {
		// Loaded keys are z steps of 8 apart, a gap of 4 bits; with one of
		// them deleted, two are 16 apart, which takes 5. A full leaf that
		// loses a key no longer fits its page: a root leaf splits in half,
		// and a leaf with a neighbour spreads over it, the piece holding
		// the gap taking the wider frame.
		del := func(t *testing.T, tree *Tree, i int, was, want []int) {
			t.Helper()
			before, after := spillWrite(t, tree, func() error {
				if ok, err := tree.Delete(Key{Hi: step(i), Lo: id(i)}); !ok || err != nil {
					return fmt.Errorf("Delete(%d) = %v, %v", i, ok, err)
				}
				return nil
			})
			if !reflect.DeepEqual(before, was) || !reflect.DeepEqual(after, want) {
				t.Fatalf("leaves %v became %v, want %v to become %v", before, after, was, want)
			}
		}
		del(t, loadSpillTree(t, 24, 295, 1, step, id), 100, []int{295}, []int{147, 147})
		del(t, loadSpillTree(t, 24, 590, 1, step, id), 100, []int{295, 295}, []int{196, 196, 197})
		// A batch that deletes one key and inserts another between two
		// loaded ones: the leaf takes both and still spreads.
		tree := loadSpillTree(t, 24, 590, 1, step, id)
		before, after := spillWrite(t, tree, func() error {
			return tree.CommitBatch(tree.MVCCStats().Seq, []Mutation{{Key: Key{Hi: step(100), Lo: id(100)}, Delete: true}, {Key: into(300)}})
		})
		if !reflect.DeepEqual(before, []int{295, 295}) || len(after) != 3 {
			t.Fatalf("leaves %v became %v", before, after)
		}
	})

	t.Run("no cut fits", func(t *testing.T) {
		// 16-byte keys with random 64-bit ids, which no four id bases
		// narrow: 9 bytes an entry, 54 to a page. The left leaf's z
		// values are small, the right one's start at 2^62, and one more
		// key lands in the left leaf. No cut fits the pair in two leaves,
		// and a piece spanning both z ranges takes 16 bytes an entry: the
		// middle one of three is cut shorter than a third.
		rng := rand.New(rand.NewSource(41))
		ids := make([]uint64, 108)
		for i := range ids {
			ids[i] = rng.Uint64()
		}
		tree := loadSpillTree(t, 0, len(ids), 1, func(i int) uint64 {
			if i < 54 {
				return uint64(i)
			}
			return 1<<62 + uint64(i)
		}, func(i int) uint64 { return ids[i] })
		spill(t, tree, Key{Hi: 50, Lo: rng.Uint64()}, []int{54, 54}, []int{36, 30, 43})
	})

	t.Run("byte-full leaf", func(t *testing.T) {
		// A root leaf as full as its 4 KiB page's bytes allow: z steps of
		// 97 from 2^23 and 17-bit ids, 34 bits an entry, about 960 keys.
		// One more key at its front, middle or back, with an id of 2^63
		// or with a z far from the others, widens only the frame of the
		// piece that holds it: the leaf is cut in two.
		hi := func(i int) uint64 { return uint64(1<<23+97*i) << 40 }
		lo := func(i int) uint64 { return uint64(i) * 2654435761 % (1 << 17) }
		n := fullLeaf(t, 4096, 24, hi, lo)
		for _, k := range []Key{
			{Hi: hi(0), Lo: 1 << 63}, {Hi: hi(n / 2), Lo: 1 << 63}, {Hi: hi(n - 1), Lo: 1 << 63},
			{Hi: 0, Lo: 1}, {Hi: 0xffffff << 40, Lo: 1},
		} {
			tree := loadTree(t, 4096, 24, n, 1, hi, lo)
			if _, after := spillInsert(t, tree, k); len(after) != 2 {
				t.Errorf("a full leaf of %d keys took %v as %d leaves", n, k, len(after))
			}
		}
	})

	t.Run("fifth id group", func(t *testing.T) {
		// A byte-full root leaf whose ids fall in four groups from 0,
		// 2^40, 2^41 and 3 * 2^40, each a base of an 11-bit id field. A key
		// in its middle with an id from 5 * 2^40 makes a fifth group, and
		// a piece that holds it needs 43-bit id fields: no cut in two
		// fits, and three pieces do.
		hi := func(i int) uint64 { return uint64(1<<23+97*i) << 40 }
		lo := func(i int) uint64 { return uint64(i%4)<<40 + uint64(i/4) }
		n := fullLeaf(t, 4096, 24, hi, lo)
		tree := loadTree(t, 4096, 24, n, 1, hi, lo)
		if _, after := spillInsert(t, tree, Key{Hi: hi(n/2) + 1<<40, Lo: 5 << 40}); len(after) != 3 {
			t.Errorf("a full leaf of %d keys in four id groups took a fifth as %v", n, after)
		}
	})

	t.Run("batches", func(t *testing.T) {
		// Batches of inserts and deletes, ids narrow and wide, spill into
		// pages the same batch already rewrote.
		tree := loadSpillTree(t, 24, 2000, 1, func(i int) uint64 { return uint64(i) << 44 }, id)
		rng := rand.New(rand.NewSource(31))
		ref := map[Key]bool{}
		var keys []Key
		for i := 0; i < 2000; i++ {
			keys = append(keys, Key{Hi: uint64(i) << 44, Lo: uint64(i)})
			ref[keys[i]] = true
		}
		for b := 0; b < 300; b++ {
			var muts []Mutation
			for j := 0; j < 8; j++ {
				k := Key{Hi: rng.Uint64() >> 40 << 40, Lo: uint64(rng.Intn(4000))}
				if rng.Intn(4) == 0 {
					k.Lo += 1 << uint(20+rng.Intn(40))
				}
				if !ref[k] {
					ref[k] = true
					keys = append(keys, k)
					muts = append(muts, Mutation{Key: k})
				}
			}
			for j := rng.Intn(3); j > 0; j-- {
				i := rng.Intn(len(keys))
				k := keys[i]
				keys[i], keys = keys[len(keys)-1], keys[:len(keys)-1]
				delete(ref, k)
				muts = append(muts, Mutation{Key: k, Delete: true})
			}
			if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
		if tree.Len() != len(ref) {
			t.Fatalf("%d entries, want %d", tree.Len(), len(ref))
		}
		for k := range ref {
			if _, ok, err := tree.Get(k); !ok || err != nil {
				t.Fatalf("Get(%v) = %v, %v", k, ok, err)
			}
		}
	})

	t.Run("underflow", func(t *testing.T) {
		// An underfull leaf is re-cut with its window into one leaf fewer
		// when the pieces fit, else into as many at even shares, at a
		// derived capacity (minLeaf 22) and at an explicit one of 20
		// (minLeaf 10). Leaves are trimmed from their back, which leaves a
		// run that still fits, before the delete that underflows one. The
		// trimmed keys leave a gap of 12 bits or more, and at a derived
		// capacity the piece that holds it is cut shorter.
		explicit := func(n int, fill float64) *Tree {
			t.Helper()
			es := make([]Entry, n)
			for i := range es {
				es[i].Key = Key{Hi: step(i), Lo: id(i)}
			}
			tree, err := Load(disk.MustPool(disk.MustMemStore(512), 256, disk.LRU), Config{LeafCapacity: 20, KeyBits: 24}, es, fill)
			if err != nil {
				t.Fatal(err)
			}
			return tree
		}
		for _, c := range []struct {
			name       string
			tree       *Tree
			trim       [2]int // loaded keys deleted first
			del        int    // the loaded key whose delete underflows
			was, want  []int
			wantHeight int
		}{
			{"derived, one fewer", loadSpillTree(t, 24, 465, 0.5, step, id), [2]int{177, 310}, 176,
				[]int{155, 22, 155}, []int{165, 166}, 2},
			{"derived, as many", loadSpillTree(t, 24, 885, 1, step, id), [2]int{317, 590}, 316,
				[]int{295, 22, 295}, []int{203, 185, 223}, 2},
			{"derived, root collapses", loadSpillTree(t, 24, 310, 0.5, step, id), [2]int{22, 155}, 21,
				[]int{22, 155}, []int{176}, 1},
			{"explicit, one fewer", explicit(60, 0.7), [2]int{22, 24}, 21,
				[]int{12, 10, 12, 12, 12}, []int{16, 17, 12, 12}, 2},
			{"explicit, even shares", explicit(60, 1), [2]int{30, 40}, 29,
				[]int{20, 10, 20}, []int{16, 16, 17}, 2},
			{"explicit, root collapses", explicit(21, 0.5), [2]int{}, 20,
				[]int{11, 10}, []int{20}, 1},
		} {
			t.Run(c.name, func(t *testing.T) {
				for i := c.trim[1] - 1; i >= c.trim[0]; i-- {
					if ok, err := c.tree.Delete(Key{Hi: step(i), Lo: id(i)}); !ok || err != nil {
						t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
					}
				}
				before, after := spillWrite(t, c.tree, func() error {
					if ok, err := c.tree.Delete(Key{Hi: step(c.del), Lo: id(c.del)}); !ok || err != nil {
						return fmt.Errorf("Delete(%d) = %v, %v", c.del, ok, err)
					}
					return nil
				})
				if !reflect.DeepEqual(before, c.was) || !reflect.DeepEqual(after, c.want) {
					t.Errorf("leaves %v became %v, want %v to become %v", before, after, c.was, c.want)
				}
				if h := c.tree.Height(); h != c.wantHeight {
					t.Errorf("height %d, want %d", h, c.wantHeight)
				}
			})
		}
	})
}

// TestInternalRecut: an underfull internal node is re-cut with its
// window as a leaf is, its children and the parent's separators between
// them pulled down, into one node fewer when they fit, else into as
// many at even shares, the left rounded up; and a root left with one
// child collapses. On 128-byte pages an 11-byte key gives a fanout of 8
// (minChildren 4), and a capacity of 4 leaves of 2 keys at half fill:
// 20 leaves under a root of three nodes, [7 7 6]. Deleting the keys in
// order from the middle node's first leaf re-cuts that leaf with its
// right neighbour into one every second delete. The middle node, left
// with 3 children, is re-cut with both its neighbours, 16 children, into
// two nodes of 8; the right one, left with 3, with its left neighbour
// of 7 into two of 5, since one node cannot hold 10; and left with 3
// again, with its neighbour of 5 into one node of 8, which becomes the
// root.
func TestInternalRecut(t *testing.T) {
	es := make([]Entry, 40)
	for i := range es {
		es[i].Key = Key{Hi: uint64(i) << 40}
	}
	tree, err := Load(disk.MustPool(disk.MustMemStore(128), 64, disk.LRU), Config{LeafCapacity: 4, KeyBits: 24}, es, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.fanout != 8 {
		t.Fatalf("fanout %d, want 8", tree.fanout)
	}
	// shape is the children count of each child of the root.
	shape := func() []int {
		v := tree.currentVersion()
		root, err := tree.loadInternal(v.root)
		if err != nil {
			t.Fatal(err)
		}
		if v.height == 2 {
			return []int{len(root.children)}
		}
		var counts []int
		for _, id := range root.children {
			n, err := tree.loadInternal(id)
			if err != nil {
				t.Fatal(err)
			}
			counts = append(counts, len(n.children))
		}
		return counts
	}
	if got := shape(); !reflect.DeepEqual(got, []int{7, 7, 6}) {
		t.Fatalf("loaded shape %v, want [7 7 6]", got)
	}
	var shapes [][]int
	for i := 14; i < 40 && tree.Height() == 3; i++ {
		if ok, err := tree.Delete(es[i].Key); !ok || err != nil {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("after deleting key %d: %v", i, err)
		}
		if s := shape(); len(shapes) == 0 || !reflect.DeepEqual(s, shapes[len(shapes)-1]) {
			shapes = append(shapes, s)
		}
	}
	want := [][]int{{7, 6, 6}, {7, 5, 6}, {7, 4, 6}, {8, 8}, {7, 8}, {7, 7}, {7, 6}, {7, 5}, {7, 4}, {5, 5}, {5, 4}, {8}}
	if !reflect.DeepEqual(shapes, want) {
		t.Errorf("the root's children went through %v, want %v", shapes, want)
	}
	if h := tree.Height(); h != 2 {
		t.Errorf("height %d, want 2", h)
	}
}

// TestFitSpanMatchesFrameOf: a run fits by one definition, its image at
// frameOf. From either end of es, fitSpan is the longest run of at most
// maxCount entries whose canonical image is at most maxBytes, and one
// entry at least; the oracle tries every run, so it does not assume
// that a shorter run fits wherever a longer one does. The runs hold ids
// in 1 to 5 clusters 2^8 to 2^48 apart, on pages of 128 to 4096 bytes,
// under explicit and derived capacities, at the caps a split and a bulk
// load pass. Each run found encodes within maxBytes and decodes back.
func TestFitSpanMatchesFrameOf(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sels [maxSel + 1]int
	for round := 0; round < 200; round++ {
		pool := disk.MustPool(disk.MustMemStore(128<<rng.Intn(6)), 8, disk.LRU)
		cfg := Config{KeyBits: []int{8, 24, 40, 0}[rng.Intn(4)]}
		tree, err := newTreeShell(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			minCap := leafMinCap(tree.pageSize, tree.keyLen)
			cfg.LeafCapacity = 2 + rng.Intn(minCap-1)
			if tree, err = newTreeShell(pool, cfg); err != nil {
				t.Fatal(err)
			}
		}
		maxCount, maxBytes := tree.leafCap, tree.pageSize
		if rng.Intn(2) == 0 {
			fill := 0.5 + rng.Float64()/2
			maxCount, maxBytes = int(fill*float64(maxCount)), int(fill*float64(maxBytes))
		}
		es := clusteredEntries(rng, tree.keyLen, rng.Intn(8*(tree.keyLen-8)+1), 1+rng.Intn(min(2*tree.leafCap, 600)))
		for _, step := range []int{+1, -1} {
			run := func(n int) []Entry {
				if step < 0 {
					return es[len(es)-n:]
				}
				return es[:n]
			}
			want := 1
			for n := 1; n <= min(len(es), maxCount); n++ {
				if leafBytes(n, frameOf(run(n), tree.keyLen), tree.keyLen) <= maxBytes {
					want = n
				}
			}
			got := tree.fitSpan(es, step, maxCount, maxBytes)
			if got != want {
				t.Fatalf("round %d, step %+d, %d entries, caps %d and %d bytes: fitSpan %d, longest fitting run %d",
					round, step, len(es), maxCount, maxBytes, got, want)
			}
			f := frameOf(run(got), tree.keyLen)
			sels[f.sel]++
			data := make([]byte, maxBytes)
			encodeLeaf(data, run(got), f, tree.keyLen)
			if back, err := decodeLeaf(nil, data, tree.keyLen); err != nil || !reflect.DeepEqual(back, run(got)) {
				t.Fatalf("round %d, step %+d: a run of %d decodes as %d entries, %v", round, step, got, len(back), err)
			}
		}
	}
	for sel, n := range sels {
		if n == 0 {
			t.Errorf("no run found had %d selector bits: %v", sel, sels)
		}
	}
}

// TestSpreadFindsAnyCut: spread cuts all into k leaves whenever any cut
// into k pieces of at least minLeaf entries that pass fitLeaf exists;
// the oracle tries every cut. An underfull leaf's window therefore
// needs no lend of its own: a lend's cut, or a merge's, is such a cut,
// so the re-cut into as many leaves, or one fewer, finds one. The runs
// hold ids in 1 to 5 clusters on pages of 128 and 256 bytes, under
// explicit and derived capacities.
func TestSpreadFindsAnyCut(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var fits, searched, none int
	for round := 0; round < 300; round++ {
		pool := disk.MustPool(disk.MustMemStore(128<<rng.Intn(2)), 8, disk.LRU)
		cfg := Config{KeyBits: []int{8, 24, 40, 0}[rng.Intn(4)]}
		tree, err := newTreeShell(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			cfg.LeafCapacity = 2 + rng.Intn(leafMinCap(tree.pageSize, tree.keyLen)-1)
			if tree, err = newTreeShell(pool, cfg); err != nil {
				t.Fatal(err)
			}
		}
		// Runs of different z spans and id clusters, in z order, cut to
		// about k pages.
		var all []Entry
		for part := 2 + rng.Intn(3); part > 0; part-- {
			all = append(all, clusteredEntries(rng, tree.keyLen, rng.Intn(8*(tree.keyLen-8)+1), 20+rng.Intn(100))...)
		}
		slices.SortFunc(all, func(a, b Entry) int { return a.Key.Compare(b.Key) })
		all = slices.CompactFunc(all, func(a, b Entry) bool { return a.Key == b.Key })
		k := 1 + rng.Intn(3)
		page := tree.fitSpan(all, +1, tree.leafCap, tree.pageSize)
		all = all[:max(1, min(len(all), 120, k*page+rng.Intn(2*page+1)-page))]
		// cuts[i][p]: all[:p] cuts into i pieces.
		cuts := make([][]bool, k+1)
		for i := range cuts {
			cuts[i] = make([]bool, len(all)+1)
		}
		cuts[0][0] = true
		for p := 1; p <= len(all); p++ {
			for q := 0; q+tree.minLeaf <= p; q++ {
				if _, ok := tree.fitLeaf(all[q:p]); !ok {
					continue
				}
				for i := 1; i <= k; i++ {
					cuts[i][p] = cuts[i][p] || cuts[i-1][q]
				}
			}
		}
		got, _, ok := tree.spread(all, k)
		if ok != cuts[k][len(all)] {
			t.Fatalf("round %d: %d entries into %d leaves (minLeaf %d, capacity %d): spread %v, a cut exists %v",
				round, len(all), k, tree.minLeaf, cfg.LeafCapacity, ok, cuts[k][len(all)])
		}
		switch {
		case !ok:
			none++
		case slices.Equal(got, evenCuts(len(all), k)):
			fits++
		default:
			searched++
		}
	}
	t.Logf("%d even cuts, %d searched, %d with no cut", fits, searched, none)
	if fits == 0 || searched == 0 || none == 0 {
		t.Errorf("%d even cuts, %d searched, %d with no cut", fits, searched, none)
	}
}

// evenCuts returns the cuts of n entries into k even shares.
func evenCuts(n, k int) []int {
	cuts := make([]int, k+1)
	for i := range cuts {
		cuts[i] = i * n / k
	}
	return cuts
}

// FuzzLeafSpill drives a tree on 512-byte pages, at a derived capacity
// or an explicit one in [2, minCap], bulk-loaded full or started empty,
// through seeded batches of inserts and deletes whose ids are 1 to 8
// bytes wide, so neighbouring leaves take different frames, full leaves
// spread over windows of every shape and underfull ones are re-cut with
// theirs. After every batch the invariants hold and a scan returns the
// model's keys in order.
func FuzzLeafSpill(f *testing.F) {
	f.Add(int64(1), uint8(24), uint16(0), uint8(40), uint8(0))
	f.Add(int64(2), uint8(0), uint16(300), uint8(40), uint8(0))
	f.Add(int64(3), uint8(8), uint16(178), uint8(20), uint8(0))
	f.Add(int64(4), uint8(40), uint16(900), uint8(60), uint8(0))
	f.Add(int64(5), uint8(24), uint16(999), uint8(63), uint8(0))
	f.Add(int64(6), uint8(0), uint16(120), uint8(63), uint8(0))
	f.Add(int64(7), uint8(8), uint16(600), uint8(63), uint8(0))
	f.Add(int64(8), uint8(24), uint16(300), uint8(63), uint8(1))
	f.Add(int64(9), uint8(0), uint16(500), uint8(63), uint8(3))
	f.Add(int64(10), uint8(8), uint16(999), uint8(63), uint8(19))
	f.Add(int64(11), uint8(40), uint16(200), uint8(63), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, bits uint8, loaded uint16, batches uint8, capacity uint8) {
		rng := rand.New(rand.NewSource(seed))
		keyBits := []int{8, 24, 40, 64}[bits%4]
		mask := ^uint64(0) << uint(64-keyBits)
		cfg := Config{KeyBits: keyBits}
		if capacity > 0 {
			minCap := leafMinCap(512, keyLenFor(keyBits))
			cfg.LeafCapacity = 2 + int(capacity-1)%(minCap-1)
		}
		model := map[Key]bool{}
		var keys []Key
		fresh := func() Key {
			for {
				k := Key{Hi: rng.Uint64() >> uint(rng.Intn(24)) & mask, Lo: rng.Uint64() >> uint(8*rng.Intn(8))}
				if !model[k] {
					model[k] = true
					return k
				}
			}
		}
		es := make([]Entry, int(loaded)%1000)
		for i := range es {
			es[i].Key = fresh()
			keys = append(keys, es[i].Key)
		}
		slices.SortFunc(es, func(a, b Entry) int { return a.Key.Compare(b.Key) })
		tree, err := Load(disk.MustPool(disk.MustMemStore(512), 64, disk.LRU), cfg, es, 1)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < int(batches)%64; b++ {
			var muts []Mutation
			var added []Key
			for j := 1 + rng.Intn(16); j > 0; j-- {
				if len(keys) > 0 && rng.Intn(3) == 0 {
					i := rng.Intn(len(keys))
					k := keys[i]
					keys[i], keys = keys[len(keys)-1], keys[:len(keys)-1]
					delete(model, k)
					muts = append(muts, Mutation{Key: k, Delete: true})
				} else {
					added = append(added, fresh())
					muts = append(muts, Mutation{Key: added[len(added)-1]})
				}
			}
			keys = append(keys, added...)
			if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			var got []Key
			snap := tree.Snapshot()
			c := snap.Cursor()
			for ok, err := c.First(); ok || err != nil; ok, err = c.Next() {
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, c.Key())
			}
			snap.Release()
			want := slices.Clone(keys)
			slices.SortFunc(want, Key.Compare)
			if !slices.Equal(got, want) {
				t.Fatalf("batch %d: a scan returns %d keys, the model holds %d", b, len(got), len(want))
			}
		}
	})
}
