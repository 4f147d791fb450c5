package core

import (
	"fmt"
	"math/rand"
	"testing"

	"probe/internal/btree"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// ElementStore keeps a decomposed object relation — tuples
// (object id, element) — in a prefix B+-tree, in z order. This is the
// stored form of Section 4's R(p@, zr, ...) relations: the element
// domain living inside ordinary DBMS storage, so the spatial join can
// run as a one-pass merge of two stored relations through the buffer
// pool.
//
// The tree key packs an element and its object id so that key order
// equals z order with containers first: Hi holds the left-justified
// element bits (numeric order on left-justified bitstrings is
// lexicographic order), and Lo breaks ties with the element length in
// its top byte (shorter prefix — the container — first) followed by
// the object id. Object ids are therefore limited to 56 bits.
type ElementStore struct {
	g    zorder.Grid
	tree *btree.Tree
}

// maxStoreID is the largest storable object id (56 bits).
const maxStoreID = 1<<56 - 1

// NewElementStore creates an empty element relation on the pool.
func NewElementStore(pool *disk.Pool, g zorder.Grid, leafCapacity int) (*ElementStore, error) {
	tree, err := btree.New(pool, treeConfig(g, leafCapacity))
	if err != nil {
		return nil, err
	}
	return &ElementStore{g: g, tree: tree}, nil
}

// Grid returns the store's grid.
func (s *ElementStore) Grid() zorder.Grid { return s.g }

// Tree exposes the underlying B+-tree for statistics.
func (s *ElementStore) Tree() *btree.Tree { return s.tree }

// Len returns the number of stored items.
func (s *ElementStore) Len() int { return s.tree.Len() }

func (s *ElementStore) key(it Item) (btree.Key, error) {
	if it.ID > maxStoreID {
		return btree.Key{}, fmt.Errorf("core: object id %d exceeds 56 bits", it.ID)
	}
	if int(it.Elem.Len) > s.g.TotalBits() {
		return btree.Key{}, fmt.Errorf("core: element %v longer than grid resolution", it.Elem)
	}
	return btree.Key{
		Hi: it.Elem.Bits,
		Lo: uint64(it.Elem.Len)<<56 | it.ID,
	}, nil
}

func decodeItem(k btree.Key) Item {
	return Item{
		Elem: zorder.Element{Bits: k.Hi, Len: uint8(k.Lo >> 56)},
		ID:   k.Lo & maxStoreID,
	}
}

// Insert stores one item. Duplicate (element, id) pairs are rejected.
func (s *ElementStore) Insert(it Item) error {
	k, err := s.key(it)
	if err != nil {
		return err
	}
	return s.tree.Insert(k, nil)
}

// InsertObject stores an object's whole decomposition.
func (s *ElementStore) InsertObject(id uint64, elems []zorder.Element) error {
	for _, e := range elems {
		if err := s.Insert(Item{Elem: e, ID: id}); err != nil {
			return fmt.Errorf("core: object %d element %v: %w", id, e, err)
		}
	}
	return nil
}

// Delete removes one item, reporting whether it was present.
func (s *ElementStore) Delete(it Item) (bool, error) {
	k, err := s.key(it)
	if err != nil {
		return false, err
	}
	return s.tree.Delete(k)
}

// Scan streams all items in z order, of the version committed when it
// starts.
func (s *ElementStore) Scan(fn func(Item) bool) error {
	snap := s.tree.Snapshot()
	defer snap.Release()
	sc, err := newStoreCursor(snap)
	for err == nil {
		it, ok := sc.head()
		if !ok || !fn(it) {
			return nil
		}
		_, err = sc.next()
	}
	return err
}

// storeCursor is a stored relation as a join input: a forward cursor
// on one version of the store, counting the leaves it reads.
type storeCursor struct {
	c     *btree.Cursor
	pages pageTracker
}

func newStoreCursor(snap *btree.Snapshot) (*storeCursor, error) {
	sc := &storeCursor{c: snap.Cursor()}
	_, err := sc.c.First()
	sc.pages.touch(sc.c)
	return sc, err
}

func (sc *storeCursor) head() (Item, bool) {
	if !sc.c.Valid() {
		return Item{}, false
	}
	return decodeItem(sc.c.Key()), true
}

func (sc *storeCursor) next() (*storeCursor, error) {
	_, err := sc.c.Next()
	sc.pages.touch(sc.c)
	return sc, err
}

// JoinPages reports the distinct data pages each side of a stored
// join touched.
type JoinPages struct {
	Left, Right int
}

// SpatialJoinStores merges two stored element relations, streaming
// overlap pairs to fn (return false to stop). It is the disk-resident
// form of SpatialJoin, the same merge read through a cursor per side:
// one sequential pass over each relation's leaves — the access pattern
// for which "the LRU buffering strategy will work well" (Section 4) —
// with page counts reported. Each side reads the version of its store
// committed when the join starts.
func SpatialJoinStores(a, b *ElementStore, fn func(Pair) bool) (JoinPages, error) {
	sa, sb := a.tree.Snapshot(), b.tree.Snapshot()
	defer sa.Release()
	defer sb.Release()
	ca, err := newStoreCursor(sa)
	if err != nil {
		return JoinPages{}, err
	}
	cb, err := newStoreCursor(sb)
	if err != nil {
		return JoinPages{}, err
	}
	err = spatialJoinFunc(nil, ca, cb, new(obs.Counts), fn)
	return JoinPages{Left: ca.pages.pages, Right: cb.pages.pages}, err
}

func newStore(t *testing.T, g zorder.Grid) *ElementStore {
	t.Helper()
	pool := disk.MustPool(disk.MustMemStore(1024), 128, disk.LRU)
	s, err := NewElementStore(pool, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestElementStoreKeyOrderIsZOrder(t *testing.T) {
	// Insert elements in shuffled order; scanning must return them in
	// z order with containers first.
	g := zorder.MustGrid(2, 6)
	elems := []string{"1", "0110", "0", "01", "011", "10", "0111", "00"}
	s := newStore(t, g)
	for i, es := range elems {
		if err := s.Insert(Item{Elem: zorder.MustParseElement(es), ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []Item
	if err := s.Scan(func(it Item) bool { got = append(got, it); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(elems) {
		t.Fatalf("scan returned %d items", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Elem.Compare(got[i].Elem) > 0 {
			t.Fatalf("scan out of z order at %d: %v then %v", i, got[i-1].Elem, got[i].Elem)
		}
	}
	if got[0].Elem.String() != "0" || got[len(got)-1].Elem.String() != "10" {
		t.Errorf("order endpoints wrong: %v ... %v", got[0].Elem, got[len(got)-1].Elem)
	}
}

func TestElementStoreKeyOrderProperty(t *testing.T) {
	// The packed key order must equal element z order (with id
	// tiebreak) on random elements.
	g := zorder.MustGrid(2, 8)
	rng := rand.New(rand.NewSource(61))
	s := &ElementStore{g: g}
	for trial := 0; trial < 3000; trial++ {
		n1 := rng.Intn(g.TotalBits() + 1)
		n2 := rng.Intn(g.TotalBits() + 1)
		a := Item{Elem: zorder.NewElement(rng.Uint64()&(1<<uint(n1)-1), n1), ID: uint64(rng.Intn(100))}
		b := Item{Elem: zorder.NewElement(rng.Uint64()&(1<<uint(n2)-1), n2), ID: uint64(rng.Intn(100))}
		ka, err := s.key(a)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := s.key(b)
		if err != nil {
			t.Fatal(err)
		}
		cmp := a.Elem.Compare(b.Elem)
		if cmp == 0 {
			continue // tie broken by id; both orders acceptable
		}
		if (cmp < 0) != ka.Less(kb) {
			t.Fatalf("key order mismatch: %v vs %v", a.Elem, b.Elem)
		}
	}
}

func TestElementStoreValidation(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	s := newStore(t, g)
	if err := s.Insert(Item{Elem: zorder.MustParseElement("01"), ID: 1 << 60}); err == nil {
		t.Errorf("oversized id accepted")
	}
	long := zorder.NewElement(0, 20) // longer than the 8-bit grid
	if err := s.Insert(Item{Elem: long, ID: 1}); err == nil {
		t.Errorf("over-long element accepted")
	}
	it := Item{Elem: zorder.MustParseElement("01"), ID: 1}
	if err := s.Insert(it); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(it); err != btree.ErrDuplicateKey {
		t.Errorf("duplicate item: %v", err)
	}
	ok, err := s.Delete(it)
	if err != nil || !ok {
		t.Errorf("delete failed: %v %v", ok, err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	if _, err := s.Delete(Item{Elem: zorder.MustParseElement("01"), ID: 1 << 60}); err == nil {
		t.Errorf("oversized id accepted by delete")
	}
	if s.Grid() != g || s.Tree() == nil {
		t.Errorf("accessors wrong")
	}
}

// TestSpatialJoinStoresMatchesInMemory: the disk-resident join emits
// the in-memory join's raw pairs, in the same order, on random box
// relations, on element keys of 2, 1 and 8 bytes before the id, and
// counts each side's leaves once.
func TestSpatialJoinStoresMatchesInMemory(t *testing.T) {
	for _, c := range []propGrid{sameGrid(2, 6), sameGrid(1, 8), deepGrid} {
		joinStoresMatchInMemory(t, c)
	}
}

func joinStoresMatchInMemory(t *testing.T, c propGrid) {
	g := c.g
	for seed := int64(0); seed < 4; seed++ {
		left := randomBoxes(c.draw, 12, seed*2+71)
		right := randomBoxes(c.draw, 12, seed*2+72)
		c.moveToFarCorner(nil, append(left, right...))
		aItems := decomposeBoxes(g, left)
		bItems := decomposeBoxes(g, right)

		sa := newStore(t, g)
		sb := newStore(t, g)
		for _, it := range aItems {
			if err := sa.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		for _, it := range bItems {
			if err := sb.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		var got []Pair
		pages, err := SpatialJoinStores(sa, sb, func(p Pair) bool {
			got = append(got, p)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := SpatialJoin(aItems, bItems)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPairs(got, want) {
			t.Fatalf("%v seed %d: stored join disagrees: %d vs %d raw pairs",
				g, seed, len(got), len(want))
		}
		if pages.Left != sa.Tree().LeafPages() || pages.Right != sb.Tree().LeafPages() {
			t.Fatalf("%v seed %d: join counted %+v pages, trees hold %d and %d leaves",
				g, seed, pages, sa.Tree().LeafPages(), sb.Tree().LeafPages())
		}
	}
}

// TestJoinStoresOnePassLRU validates the Section 4 buffering claim:
// with a small LRU pool, the stored join physically reads each leaf
// page about once — "each page is accessed at most once, its contents
// are processed, and then the page will not be needed again".
func TestJoinStoresOnePassLRU(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	pool := disk.MustPool(disk.MustMemStore(1024), 8, disk.LRU) // tiny pool
	sa, err := NewElementStore(pool, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewElementStore(pool, g, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	for id := uint64(1); id <= 60; id++ {
		x := uint32(rng.Intn(200))
		y := uint32(rng.Intn(200))
		b := geom.Box2(x, x+uint32(rng.Intn(50)), y, y+uint32(rng.Intn(50)))
		target := sa
		if id%2 == 0 {
			target = sb
		}
		if err := target.InsertObject(id, decompose.Box(g, b)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Invalidate()
	misses := pool.Stats().Misses
	pairs := 0
	pages, err := SpatialJoinStores(sa, sb, func(Pair) bool { pairs++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if pairs == 0 {
		t.Fatal("join found nothing; workload broken")
	}
	reads := int(pool.Stats().Misses - misses)
	// One pass: physical reads should be close to the distinct leaf
	// pages, never a multiple of them. The cursor reads each internal
	// node once per stream as its cached descent path advances; the
	// (L+R)/8 term covers every internal node at the tree's fanout
	// while staying far below a second pass over the leaves.
	budget := pages.Left + pages.Right + (pages.Left+pages.Right)/8 +
		sa.Tree().Height() + sb.Tree().Height() + 4
	if reads > budget {
		t.Errorf("join performed %d physical reads for %d+%d leaf pages (budget %d): not one-pass",
			reads, pages.Left, pages.Right, budget)
	}
}

func TestSpatialJoinStoresEarlyStop(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	sa := newStore(t, g)
	sb := newStore(t, g)
	whole := decompose.Box(g, geom.FullBox(g))
	for id := uint64(1); id <= 5; id++ {
		sa.InsertObject(id, whole)
		sb.InsertObject(id+100, whole)
	}
	n := 0
	if _, err := SpatialJoinStores(sa, sb, func(Pair) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("early stop delivered %d pairs", n)
	}
}

// BenchmarkAblationJoinOnDisk measures the stored spatial join's
// one-pass behavior under a small LRU pool, reporting physical reads
// per leaf page (the Section 4 buffering claim: ~1.0).
func BenchmarkAblationJoinOnDisk(b *testing.B) {
	g := zorder.MustGrid(2, 9)
	pool := disk.MustPool(disk.MustMemStore(1024), 8, disk.LRU)
	sa, err := NewElementStore(pool, g, 20)
	if err != nil {
		b.Fatal(err)
	}
	sb, err := NewElementStore(pool, g, 20)
	if err != nil {
		b.Fatal(err)
	}
	boxes, err := workload.Queries(g, workload.QuerySpec{Volume: 0.002, Aspect: 1}, 200, 81)
	if err != nil {
		b.Fatal(err)
	}
	for i, box := range boxes {
		target := sa
		if i%2 == 1 {
			target = sb
		}
		if err := target.InsertObject(uint64(i+1), decompose.Box(g, box)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var readsPerLeaf float64
	for i := 0; i < b.N; i++ {
		pool.Invalidate()
		misses := pool.Stats().Misses
		pages, err := SpatialJoinStores(sa, sb, func(Pair) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		readsPerLeaf = float64(pool.Stats().Misses-misses) / float64(pages.Left+pages.Right)
	}
	b.ReportMetric(readsPerLeaf, "reads/leaf")
}
