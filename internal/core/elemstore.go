package core

import (
	"fmt"

	"probe/internal/btree"
	"probe/internal/disk"
	"probe/internal/obs"
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
