package btree

import (
	"fmt"
	"slices"

	"probe/internal/disk"
)

// load helpers of the copy-on-write path: a writer decodes each page
// it is about to replace into the builder form (node.go), reading the
// page's image as readers do.

func (t *Tree) loadLeaf(id disk.PageID) ([]Entry, error) {
	data, err := t.pool.View(id, nil)
	if err != nil {
		return nil, err
	}
	return decodeLeaf(data, t.keyLen)
}

func (t *Tree) loadInternal(id disk.PageID) (*internalNode, error) {
	data, err := t.pool.View(id, nil)
	if err != nil {
		return nil, err
	}
	return decodeInternal(data)
}

func (t *Tree) minChildren() int { return t.fanout / 2 }

// separator returns the shortest separator between a leaf whose
// largest key is leftMax and its right neighbor, whose smallest is
// rightMin.
func (t *Tree) separator(leftMax, rightMin Key) []byte {
	var a, b [encodedKeyLen]byte
	return shortestSeparator(t.encodeKey(leftMax, &a), t.encodeKey(rightMin, &b))
}

// Delete removes the entry with the given key. It returns false when
// the key is absent. Underfull nodes borrow from or merge with
// siblings, so the tree adapts gracefully as the point set shrinks
// (the third requirement of Section 2). Like Insert, the delete is
// copy-on-write: every touched page of the published tree is replaced
// by a fresh page and the result published as one new version, leaving
// concurrent snapshot readers on the old one.
func (t *Tree) Delete(k Key) (bool, error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	w := &cow{t: t}
	nv, found, err := t.deleteCOW(w, t.currentVersion(), k)
	if err != nil {
		w.abort()
		return false, err
	}
	if !found {
		return false, nil
	}
	t.commit(nv, w.retired, []Key{k})
	return true, nil
}

func (t *Tree) deleteCOW(w *cow, v *version, k Key) (*version, bool, error) {
	var buf [encodedKeyLen]byte
	path, leafID, err := t.descendPath(v, t.encodeKey(k, &buf))
	if err != nil {
		return nil, false, err
	}
	n, err := t.loadLeaf(leafID)
	if err != nil {
		return nil, false, err
	}
	i := searchLeaf(n, k)
	if i >= len(n) || n[i].Key != k {
		return nil, false, nil
	}
	n = slices.Delete(n, i, i+1)
	nv := &version{seq: v.seq + 1, height: v.height, count: v.count - 1, leaves: v.leaves}
	if nv.root, err = t.putShrunkLeaf(w, nv, path, leafID, n); err != nil {
		return nil, false, err
	}
	return nv, true, nil
}

// An underfull node borrows from its left sibling, else its right one,
// else merges with the left one, else the right: a lend moves the cut
// in the pair ordered left to right by one, a merge drops it. The
// parent (a decoded copy on the path) absorbs the separator and child
// edits in memory; replaceUpward and rebalanceUpward write it out.

// pairOf orders a node and its sibling on side dir (-1 left, +1 right)
// left to right.
func pairOf[N any](sib, n N, dir int) (left, right N) {
	if dir < 0 {
		return sib, n
	}
	return n, sib
}

// mergeSide is the side of the sibling child ci merges with.
func mergeSide(ci int) int {
	if ci > 0 {
		return -1
	}
	return +1
}

// putShrunkLeaf writes out leaf n, which lost an entry, in place of
// page leafID, borrowing from or merging with a sibling when it is
// underfull. It returns the new root id.
func (t *Tree) putShrunkLeaf(w *cow, nv *version, path []cowLevel, leafID disk.PageID, n []Entry) (disk.PageID, error) {
	pi := len(path) - 1
	if len(n) >= t.minLeaf || pi < 0 {
		// No underflow, or the root leaf may shrink freely.
		id, err := w.putLeaf(leafID, n)
		if err != nil {
			return disk.InvalidPage, err
		}
		return t.replaceUpward(w, path, pi, id)
	}
	parent, ci := path[pi].n, path[pi].child
	for _, dir := range [2]int{-1, +1} {
		if lent, err := t.lendLeaf(w, parent, ci, dir, n); err != nil {
			return disk.InvalidPage, err
		} else if lent {
			// The parent kept its child count: no rebalance above.
			return t.writeParentAndReplaceUp(w, path, pi)
		}
	}
	// The merged leaf replaces the left page of the pair; the right one
	// retires. It holds at most 2*minLeaf-1 entries, which fit at any
	// frame.
	dir := mergeSide(ci)
	sep := min(ci, ci+dir)
	sib, err := t.loadLeaf(parent.children[ci+dir])
	if err != nil {
		return disk.InvalidPage, err
	}
	left, right := pairOf(sib, n, dir)
	if parent.children[sep], err = w.putLeaf(parent.children[sep], append(left, right...)); err != nil {
		return disk.InvalidPage, err
	}
	w.retire(parent.children[sep+1])
	nv.leaves--
	parent.removeAt(sep)
	return t.rebalanceUpward(w, nv, path, pi)
}

// lendLeaf moves one entry into n, the underfull leaf at child ci of
// parent, from its sibling on side dir when that sibling holds more
// than minLeaf entries, and writes both leaves. It reports whether it
// did. The sibling only shrinks, and n ends with minLeaf entries,
// which fit at any frame.
func (t *Tree) lendLeaf(w *cow, parent *internalNode, ci, dir int, n []Entry) (bool, error) {
	si := ci + dir
	if si < 0 || si >= len(parent.children) {
		return false, nil
	}
	sib, err := t.loadLeaf(parent.children[si])
	if err != nil || len(sib) <= t.minLeaf {
		return false, err
	}
	left, right := pairOf(sib, n, dir)
	all := append(left[:len(left):len(left)], right...)
	return true, t.putWindow(w, nil, parent, min(ci, si), 2, all, []int{0, len(left) + dir, len(all)})
}

// joinInternal returns the node holding the children of left and
// right, with sep, the parent's separator between them, pulled down.
func joinInternal(left *internalNode, sep []byte, right *internalNode) *internalNode {
	return &internalNode{
		children: slices.Concat(left.children, right.children),
		seps:     slices.Concat(left.seps, [][]byte{sep}, right.seps),
	}
}

// lendInternal is lendLeaf for an underfull internal node cur: one
// child moves across, its separator rotating through the parent's.
func (t *Tree) lendInternal(w *cow, parent *internalNode, ci, dir int, cur *internalNode) (bool, error) {
	si := ci + dir
	if si < 0 || si >= len(parent.children) {
		return false, nil
	}
	sib, err := t.loadInternal(parent.children[si])
	if err != nil || len(sib.children) <= t.minChildren() {
		return false, err
	}
	left, right := pairOf(sib, cur, dir)
	sep := min(ci, si)
	all, cut := joinInternal(left, parent.seps[sep], right), len(left.children)+dir
	left.children, right.children = all.children[:cut], all.children[cut:]
	left.seps, parent.seps[sep], right.seps = all.seps[:cut-1], all.seps[cut-1], all.seps[cut:]
	if parent.children[sep], err = w.putInternal(parent.children[sep], left); err != nil {
		return false, err
	}
	parent.children[sep+1], err = w.putInternal(parent.children[sep+1], right)
	return true, err
}

// writeParentAndReplaceUp writes the (already edited) path node at
// level pi in place of its old page and propagates the replacement to
// the root. It is the finish used where the edited node needs no
// rebalancing.
func (t *Tree) writeParentAndReplaceUp(w *cow, path []cowLevel, pi int) (disk.PageID, error) {
	id, err := w.putInternal(path[pi].id, path[pi].n)
	if err != nil {
		return disk.InvalidPage, err
	}
	return t.replaceUpward(w, path, pi-1, id)
}

// rebalanceUpward writes out path[pi].n — an internal node whose child
// set shrank — rebalancing it against its siblings and cascading
// upward as needed. It returns the new root id.
func (t *Tree) rebalanceUpward(w *cow, nv *version, path []cowLevel, pi int) (disk.PageID, error) {
	for {
		cur := path[pi].n
		if pi == 0 && len(cur.children) == 1 && nv.height > 1 {
			// Collapse the root: its only child becomes the root.
			w.retire(path[pi].id)
			nv.height--
			return cur.children[0], nil
		}
		if pi == 0 || len(cur.children) >= t.minChildren() {
			// The root may shrink freely.
			return t.writeParentAndReplaceUp(w, path, pi)
		}
		parent, ci := path[pi-1].n, path[pi-1].child
		for _, dir := range [2]int{-1, +1} {
			if lent, err := t.lendInternal(w, parent, ci, dir, cur); err != nil {
				return disk.InvalidPage, err
			} else if lent {
				return t.writeParentAndReplaceUp(w, path, pi-1)
			}
		}
		// Merge with a sibling, pulling the parent separator down.
		dir := mergeSide(ci)
		sep := min(ci, ci+dir)
		sib, err := t.loadInternal(parent.children[ci+dir])
		if err != nil {
			return disk.InvalidPage, err
		}
		left, right := pairOf(sib, cur, dir)
		merged := joinInternal(left, parent.seps[sep], right)
		if len(merged.children) > t.fanout {
			return disk.InvalidPage, fmt.Errorf("btree: merge overflowed internal node (%d children)", len(merged.children))
		}
		if parent.children[sep], err = w.putInternal(parent.children[sep], merged); err != nil {
			return disk.InvalidPage, err
		}
		w.retire(parent.children[sep+1])
		parent.removeAt(sep)
		pi--
	}
}
