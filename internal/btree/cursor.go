package btree

import (
	"context"
	"fmt"

	"probe/internal/disk"
	"probe/internal/obs"
)

// Cursor iterates leaf entries in key order. It supports the two
// access patterns the range-search merge requires (Section 3.3):
// sequential access (Next, via the descent stack) and random access
// (SeekGE, a root-to-leaf descent unless the target is in the leaf at
// hand).
//
// A cursor reads one committed version, its snapshot's, for its whole
// lifetime: concurrent writers are invisible to it, and the path it
// caches always belongs to that version. It moves forward only, as the
// merge does.
//
// A cursor holds a view of each page on its descent path — the
// internal pages from the root down, plus one leaf — straight from the
// buffer pool (disk.Pool.View). A published page image never changes,
// so a view stays right for as long as the cursor keeps it, with no
// pin and no copy; the cursor searches it in place through a page view
// (node.go). Any number of cursors may be open, and after its first
// descent a cursor allocates nothing. Sequential steps reuse the
// cached path: advancing to a neighboring leaf under the same parent
// costs one leaf read, with internal reads only when the walk crosses
// a subtree boundary. A cursor must not be shared between goroutines.
type Cursor struct {
	snap  *Snapshot
	stack []cursorLevel      // the internal pages of the path, root first
	leaf  leafPage           // the leaf under the cursor
	bases [stackBases]uint64 // the leaf view's block bases, unless more
	id    disk.PageID
	pos   int
	key   Key // entry pos of the leaf, decoded when the cursor moves there
	valid bool
	span  *obs.Counts     // the counts of the read it serves; nil = none
	ctx   context.Context // cancellation; nil = never cancelled
}

// cursorLevel is one internal page on the descent path and the index
// of the child the path went into.
type cursorLevel struct {
	page  internalPage
	child int
}

// Reset re-aims the cursor at snap's version, before the first entry
// and with no counts or context. The cursor keeps its path's capacity
// and nothing it reads: a view it last held may stay behind, but pins
// nothing, so a recycled cursor costs its next search no allocation
// and owes its last one nothing. Reset(nil) detaches it: it then holds
// no snapshot, and any use before the next Reset panics on the nil
// snapshot, not on another search's pages.
func (c *Cursor) Reset(snap *Snapshot) {
	c.snap = snap
	c.stack = c.stack[:0]
	c.valid, c.span, c.ctx = false, nil, nil
}

// SetCounts counts the cursor's traversal work on n: one obs.Seeks per
// SeekGE, obs.Descents per SeekGE that descends from the root,
// obs.NodeVisits per internal node loaded, and obs.LeafScans
// per leaf page loaded (rescans included — distinct-page counting is
// the caller's concern); each page load also hands n to the pool,
// which counts its get there (disk.Pool.View). A nil n counts nothing.
func (c *Cursor) SetCounts(n *obs.Counts) { c.span = n }

// SetContext makes the cursor cancellable: every page-load boundary
// checks the context first and fails with its error once it is done.
// Cancellation therefore costs at most the leaf already in hand: a
// cancelled cursor performs no further page reads. A nil context (the
// default) disables the checks at zero cost.
func (c *Cursor) SetContext(ctx context.Context) { c.ctx = ctx }

// errReleasedSnapshot guards against use-after-Release bugs.
var errReleasedSnapshot = fmt.Errorf("btree: cursor on released snapshot")

// loadErr reports why the cursor may not load a page: its snapshot
// was released (its pages may be reclaimed) or its context is done.
func (c *Cursor) loadErr() error {
	if c.snap.released {
		return errReleasedSnapshot
	}
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Valid reports whether the cursor is positioned on an entry.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current entry's key; the cursor must be Valid.
func (c *Cursor) Key() Key {
	if !c.valid {
		panic("btree: Key on invalid cursor")
	}
	return c.key
}

// LeafID returns the page id of the leaf under the cursor; the
// cursor must be Valid. The experiment harness uses it to attribute
// entries to pages (Figure 6).
func (c *Cursor) LeafID() disk.PageID {
	if !c.valid {
		panic("btree: LeafID on invalid cursor")
	}
	return c.id
}

// First positions the cursor on the smallest entry. It reports
// whether the tree is non-empty.
func (c *Cursor) First() (bool, error) {
	return c.SeekGE(Key{})
}

// pushInternal views internal page id as the next level of the path.
// It is a page-load boundary.
func (c *Cursor) pushInternal(id disk.PageID) (*cursorLevel, error) {
	if err := c.loadErr(); err != nil {
		return nil, err
	}
	data, err := c.snap.t.pool.View(id, c.span)
	var p internalPage
	if err == nil {
		p, err = viewInternal(data)
	}
	if err != nil {
		return nil, err
	}
	c.span.Inc(obs.NodeVisits)
	c.stack = append(c.stack, cursorLevel{page: p})
	return &c.stack[len(c.stack)-1], nil
}

// enterLeaf makes leaf page id the cursor's current leaf, viewed in
// place in c.leaf. An image never changes, so the view of the image
// the cursor already holds, which a seek into the same leaf gets again,
// is kept as it is. It is a page-load boundary.
func (c *Cursor) enterLeaf(id disk.PageID) error {
	if err := c.loadErr(); err != nil {
		return err
	}
	data, err := c.snap.t.pool.View(id, c.span)
	if err == nil && (c.leaf.data == nil || &data[0] != &c.leaf.data[0]) {
		if c.leaf.bases == nil {
			c.leaf.bases = c.bases[:0]
		}
		err = c.leaf.view(data, c.snap.t.keyLen)
	}
	if err != nil {
		return err
	}
	c.span.Inc(obs.LeafScans)
	c.id = id
	return nil
}

// descend rebuilds the cursor's path from the root to the leaf
// responsible for k.
func (c *Cursor) descend(k Key) error {
	var buf [encodedKeyLen]byte
	enc := c.snap.t.encodeKey(k, &buf)
	c.stack = c.stack[:0]
	v := c.snap.v
	id := v.root
	for level := v.height; level > 1; level-- {
		l, err := c.pushInternal(id)
		if err != nil {
			return err
		}
		if l.child, err = l.page.childIndex(enc); err != nil {
			return err
		}
		id = l.page.child(l.child)
	}
	return c.enterLeaf(id)
}

// nextLeaf moves to the first entry of the leaf after the current one
// by walking the cached path: pop exhausted levels, step the first
// ancestor with a further child, and descend that child's leftmost
// edge.
func (c *Cursor) nextLeaf() (bool, error) {
	c.valid = false
	n := len(c.stack)
	for n > 0 && c.stack[n-1].child == c.stack[n-1].page.count {
		n--
	}
	if c.stack = c.stack[:n]; n == 0 {
		return false, nil
	}
	top := &c.stack[n-1]
	top.child++
	id := top.page.child(top.child)
	for len(c.stack)+1 < c.snap.v.height {
		l, err := c.pushInternal(id)
		if err != nil {
			return false, err
		}
		l.child = 0
		id = l.page.child(0)
	}
	if err := c.enterLeaf(id); err != nil {
		return false, err
	}
	if c.pos, c.valid = 0, c.leaf.count > 0; c.valid {
		c.key = Key{Hi: c.leaf.bases[0], Lo: c.leaf.id(0)}
	}
	return c.valid, nil
}

// SeekGE positions the cursor on the first entry with key >= k. A
// target between the cursor's key and its leaf's last key is in that
// leaf, after the cursor: it is searched for from the cursor on, with
// no descent.
func (c *Cursor) SeekGE(k Key) (bool, error) {
	valid := c.valid
	c.valid = false
	if err := c.loadErr(); err != nil {
		return false, err
	}
	c.span.Inc(obs.Seeks)
	if valid && !k.Less(c.key) && !c.leaf.last.Less(k) {
		c.pos, c.key = c.leaf.seek(k, c.pos, c.key.Hi)
	} else {
		c.span.Inc(obs.Descents)
		if err := c.descend(k); err != nil {
			return false, err
		}
		c.pos, c.key = c.leaf.search(k)
	}
	if c.valid = c.pos < c.leaf.count; c.valid {
		return true, nil
	}
	// The target starts past this leaf's end (the descend key landed
	// at a leaf boundary).
	return c.nextLeaf()
}

// Next advances to the next entry in key order.
func (c *Cursor) Next() (bool, error) {
	if !c.valid {
		return false, nil
	}
	if c.pos+1 < c.leaf.count {
		c.pos++
		c.key = Key{Hi: c.leaf.gapFrom(c.pos, c.key.Hi) + c.leaf.gap(c.pos), Lo: c.leaf.id(c.pos)}
		return true, nil
	}
	return c.nextLeaf()
}

// CountLeaves counts, on the internal pages alone, the leaves of the
// cursor's version that a merge of disjoint z intervals against the
// keys steps into; an interval [lo, hi] holds the keys whose Hi it
// holds, and next(z), called with z ascending, returns the first that
// ends at or after z. A leaf counts when an interval meets its range
// from the key just below its lower separator: one reaching that key
// makes the merge step into the leaf, past the last key of the leaf
// before or by a seek landing past that leaf's end. The cursor is left
// before the first entry.
func (c *Cursor) CountLeaves(next func(z uint64) (lo, hi uint64, ok bool, err error)) (int, error) {
	if err := c.loadErr(); err != nil {
		return 0, err
	}
	v := c.snap.v
	c.valid, c.stack = false, c.stack[:0]
	if v.count == 0 {
		return 0, nil
	}
	return c.countBelow(v.root, v.height, nil, nil, next)
}

// countBelow counts the leaves under page id at level (1: a leaf,
// which counts) that CountLeaves counts, the page's keys being
// [lo, hi) (nil: unbounded).
func (c *Cursor) countBelow(id disk.PageID, level int, lo, hi []byte, next func(uint64) (uint64, uint64, bool, error)) (int, error) {
	if level == 1 {
		return 1, nil
	}
	depth := len(c.stack)
	l, err := c.pushInternal(id)
	if err != nil {
		return 0, err
	}
	defer func() { c.stack = c.stack[:depth] }()
	p := l.page // deeper levels may move the stack, never this page's image
	var buf [encodedKeyLen]byte
	var start []byte // the least key of the interval last found
	var last uint64  // and its last z
	n, a, off := 0, lo, p.firstSep()
	for i := 0; i <= p.count; i++ {
		// Child i holds the keys in [a, b); z is the Hi of the key below a.
		b := hi
		if i < p.count {
			if b, off, err = p.sepAt(off); err != nil {
				return n, err
			}
		}
		var z uint64
		if a != nil {
			var k [encodedKeyLen]byte
			copy(k[:], a)
			key := decodeKey(k[:c.snap.t.keyLen])
			if z = key.Hi; key.Lo == 0 && z != 0 {
				z -= 1 << uint(64-c.snap.t.keyBits)
			}
		}
		if start == nil || last < z {
			first, end, ok, err := next(z)
			if !ok {
				return n, err
			}
			start, last = c.snap.t.encodeKey(Key{Hi: first}, &buf), end
			if hi != nil && sepCompare(hi, start) <= 0 {
				return n, nil
			}
		}
		if b == nil || sepCompare(start, b) < 0 {
			m, err := c.countBelow(p.child(i), level-1, a, b, next)
			if n += m; err != nil {
				return n, err
			}
		}
		a = b
	}
	return n, nil
}
