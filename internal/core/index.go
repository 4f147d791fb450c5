// Package core implements the paper's primary contribution: spatial
// query processing on z-ordered element sequences. It provides the
// point index (a zkd prefix B+-tree storing shuffled points, the
// sequence P of Section 3.3), the range-search merge in its three
// successively optimized forms, and the spatial join operator
// R[zr <> zs]S of Section 4.
package core

import (
	"fmt"

	"probe/internal/btree"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/zorder"
)

// IndexConfig tunes a point index.
type IndexConfig struct {
	// LeafCapacity is the B+-tree leaf capacity in points. Zero
	// derives it from the page size. The paper's experiments use 20.
	LeafCapacity int
}

// reader bundles a grid with a tree view and carries every read-only
// query method — RangeSearch and friends, PartialMatch, Nearest,
// Decompose. Index embeds a live reader, each of whose calls pins the
// newest committed version for its duration; IndexSnapshot embeds one
// whose snap pins a frozen version, with a transaction's writes as its
// delta. A search aims its recycled cursor at the version it reads
// (reader.version), so one implementation serves both.
type reader struct {
	g    zorder.Grid
	tree *btree.Tree
	snap *btree.Snapshot // nil on the live index
	own  *scratch        // a Pin's scratch, which its searches run on
	d    *delta          // a transaction's writes on a snapshot (delta.go)
}

// Grid returns the grid the points live on.
func (ix *reader) Grid() zorder.Grid { return ix.g }

// Len returns the number of indexed points, a snapshot's delta
// included.
func (ix *reader) Len() int {
	if ix.snap == nil {
		return ix.tree.Len()
	}
	return ix.count(ix.snap)
}

// count is the number of points the reader sees at version v: v's
// entries, with a snapshot's delta applied.
func (ix *reader) count(v *btree.Snapshot) int {
	n := v.Len()
	if ix.d != nil {
		n += ix.d.n
	}
	return n
}

// Decompose runs the object decomposition on the index's grid: the
// Decompose operator of Section 4, yielding the element relation for
// one object.
func (ix *reader) Decompose(obj geom.Object, opts decompose.Options) ([]zorder.Element, error) {
	return decompose.Object(ix.g, obj, opts)
}

// Index stores points of a grid in z order inside a prefix B+-tree:
// step 1 of the range-search algorithm ("Compute the z value of each
// point... form a sequence of points ordered by z value").
//
// A point's tree key is (z value, point id); the id both
// disambiguates points sharing a pixel and travels with the entry, so
// no separate value payload is needed — coordinates are recovered by
// unshuffling the z value.
//
// Thread safety: an Index is safe for concurrent readers —
// RangeSearch, PartialMatch, Nearest, and Decompose may run from many
// goroutines against one index sharing one buffer pool. The tree is
// multi-versioned: readers run against committed versions without
// blocking behind writers (Insert, Delete, BulkLoad), which serialize
// among themselves only. A query on the Index itself pins the newest
// committed version when it starts and reads that one version to its
// end; a computation of several queries that must all observe one
// version runs on Snapshot(). See docs/mvcc.md for the full contract.
type Index struct {
	reader
}

func newIndexOver(g zorder.Grid, tree *btree.Tree) *Index {
	return &Index{reader{g: g, tree: tree}}
}

// NewIndex creates an empty index over grid g on the pool.
func NewIndex(pool *disk.Pool, g zorder.Grid, cfg IndexConfig) (*Index, error) {
	tree, err := btree.New(pool, treeConfig(g, cfg.LeafCapacity))
	if err != nil {
		return nil, err
	}
	return newIndexOver(g, tree), nil
}

// NewIndexBulk builds an index by bulk-loading points, in any order
// (pts is left as it is), into a packed B+-tree: every leaf full.
// Loading n points is O(n): a radix sort of their keys and O(n) page
// writes, versus O(n log n) page accesses for one-at-a-time insertion,
// and yields ~30% fewer data pages — see BenchmarkAblationBulkLoad. A
// point given twice fails with btree.ErrDuplicateKey, as Insert does.
func NewIndexBulk(pool *disk.Pool, g zorder.Grid, cfg IndexConfig, pts []geom.Point) (*Index, error) {
	entries := make([]btree.Entry, len(pts))
	for i, p := range pts {
		if !g.Valid(p.Coords) {
			return nil, fmt.Errorf("core: point %v outside %v", p, g)
		}
		entries[i].Key = btree.Key{Hi: g.ShuffleKey(p.Coords), Lo: p.ID}
	}
	sortEntries(entries)
	for i := 1; i < len(entries); i++ {
		if k := entries[i].Key; k == entries[i-1].Key {
			return nil, fmt.Errorf("core: bulk load point %d: %w", k.Lo, btree.ErrDuplicateKey)
		}
	}
	tree, err := btree.Load(pool, treeConfig(g, cfg.LeafCapacity), entries, 0)
	if err != nil {
		return nil, err
	}
	return newIndexOver(g, tree), nil
}

// treeConfig is the tree geometry of a point index or element store
// on grid g: keys as wide as the grid's z values, which are
// left-justified in Key.Hi.
func treeConfig(g zorder.Grid, leafCapacity int) btree.Config {
	return btree.Config{LeafCapacity: leafCapacity, KeyBits: g.TotalBits()}
}

// OpenIndex reattaches to an existing index whose tree pages live on
// the pool's store, using metadata captured by Tree().Meta(). The
// durable database facade uses it on reopen; the key width is the
// grid's, as at creation, whatever m carries.
func OpenIndex(pool *disk.Pool, g zorder.Grid, m btree.Meta) (*Index, error) {
	m.KeyBits = g.TotalBits()
	tree, err := btree.Attach(pool, m)
	if err != nil {
		return nil, err
	}
	return newIndexOver(g, tree), nil
}

// Tree exposes the underlying B+-tree (for statistics and the
// experiment harness).
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// IndexSnapshot is a read-only view of an Index at one committed tree
// version. All reader methods — RangeSearch, PartialMatch, Nearest —
// run against exactly that version, so a multi-statement computation
// (or one wire request) observes a single consistent state however
// many writes commit meanwhile. Snapshots are cheap to open, safe for
// concurrent use until one takes a write (Apply), and must be Released
// to let superseded pages be reclaimed.
type IndexSnapshot struct {
	reader
}

// Snapshot pins the index's current committed version and returns a
// read-only view of it. The caller must Release it.
func (ix *Index) Snapshot() *IndexSnapshot {
	return &IndexSnapshot{reader{g: ix.g, tree: ix.tree, snap: ix.tree.Snapshot()}}
}

// Pin is Snapshot for a read that ends in the call that began it: the
// version is pinned by value inside a recycled scratch, which the
// snapshot's searches then run on, so a warm Pin allocates nothing.
// Such a snapshot serves one search at a time and is released exactly
// once: Release unpins it and gives the scratch back.
func (ix *Index) Pin() *IndexSnapshot {
	s := scratchPool.Get().(*scratch)
	s.view = IndexSnapshot{reader{g: ix.g, tree: ix.tree, snap: ix.tree.SnapshotInto(&s.pin), own: s}}
	return &s.view
}

// Release unpins the snapshot's tree version. On a snapshot from
// Snapshot it is idempotent; using the snapshot afterwards is a bug.
func (s *IndexSnapshot) Release() {
	s.snap.Release()
	if s.own != nil {
		s.own.release()
	}
}

// Seq returns the committed tree version the snapshot observes.
func (s *IndexSnapshot) Seq() uint64 { return s.snap.Seq() }

// Key returns the tree key of a point, (z value, id).
func (ix *reader) Key(p geom.Point) (btree.Key, error) {
	if !ix.g.Valid(p.Coords) {
		return btree.Key{}, fmt.Errorf("core: point %v outside %v", p, ix.g)
	}
	return btree.Key{Hi: ix.g.ShuffleKey(p.Coords), Lo: p.ID}, nil
}

// Insert adds a point. Point ids must be unique per pixel.
func (ix *Index) Insert(p geom.Point) error {
	k, err := ix.Key(p)
	if err != nil {
		return err
	}
	return ix.tree.Insert(k, nil)
}

// Delete removes a point previously inserted. It reports whether the
// point was present.
func (ix *Index) Delete(p geom.Point) (bool, error) {
	k, err := ix.Key(p)
	if err != nil {
		return false, err
	}
	return ix.tree.Delete(k)
}

// BulkLoad inserts all points, failing on the first error.
func (ix *Index) BulkLoad(pts []geom.Point) error {
	for _, p := range pts {
		if err := ix.Insert(p); err != nil {
			return fmt.Errorf("core: bulk load point %d: %w", p.ID, err)
		}
	}
	return nil
}
