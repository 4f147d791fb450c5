package btree

import (
	"fmt"

	"probe/internal/disk"
)

// load helpers of the copy-on-write path: a writer decodes each page
// it is about to replace into the builder form (node.go). Decoding
// copies, so a write, like a read, holds one pin at a time and none
// when it returns.

func (t *Tree) loadLeaf(id disk.PageID) (n *leafNode, err error) {
	err = t.withPage(id, func(data []byte) (err error) {
		n, err = decodeLeaf(data, t.keyLen, t.valueSize)
		return err
	})
	return n, err
}

func (t *Tree) loadInternal(id disk.PageID) (n *internalNode, err error) {
	err = t.withPage(id, func(data []byte) (err error) {
		n, err = decodeInternal(data)
		return err
	})
	return n, err
}

func (t *Tree) minLeafEntries() int { return t.leafCap / 2 }
func (t *Tree) minChildren() int    { return t.fanout / 2 }

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
	if i >= len(n.keys) || n.keys[i] != k {
		return nil, false, nil
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	nv := &version{seq: v.seq + 1, height: v.height, count: v.count - 1, leaves: v.leaves}
	if nv.root, err = t.putShrunkLeaf(w, nv, path, leafID, n); err != nil {
		return nil, false, err
	}
	return nv, true, nil
}

// putShrunkLeaf writes out leaf n, which lost an entry, in place of
// page leafID, borrowing from or merging with a sibling when it is
// underfull. It returns the new root id.
func (t *Tree) putShrunkLeaf(w *cow, nv *version, path []cowLevel, leafID disk.PageID, n *leafNode) (disk.PageID, error) {
	if len(n.keys) >= t.minLeafEntries() || len(path) == 0 {
		// No underflow, or the root leaf may shrink freely.
		id, err := w.putLeaf(leafID, n)
		if err != nil {
			return disk.InvalidPage, err
		}
		return t.replaceUpward(w, path, len(path)-1, id)
	}

	// Underfull non-root leaf: borrow from a sibling or merge. The
	// parent (a decoded copy on the path) absorbs separator and child
	// edits in memory; replaceUpward/rebalanceUpward write it out.
	parent := path[len(path)-1].n
	ci := path[len(path)-1].child

	// Borrow from the left sibling.
	if ci > 0 {
		leftID := parent.children[ci-1]
		left, err := t.loadLeaf(leftID)
		if err != nil {
			return disk.InvalidPage, err
		}
		if len(left.keys) > t.minLeafEntries() {
			last := len(left.keys) - 1
			n.keys = append([]Key{left.keys[last]}, n.keys...)
			n.values = append([][]byte{left.values[last]}, n.values...)
			left.keys = left.keys[:last]
			left.values = left.values[:last]
			parent.seps[ci-1] = t.separator(left.keys[last-1], n.keys[0])
			if parent.children[ci-1], err = w.putLeaf(leftID, left); err != nil {
				return disk.InvalidPage, err
			}
			if parent.children[ci], err = w.putLeaf(leafID, n); err != nil {
				return disk.InvalidPage, err
			}
			// The parent kept its child count: no rebalance above.
			return t.writeParentAndReplaceUp(w, path, len(path)-1)
		}
	}
	// Borrow from the right sibling.
	if ci < len(parent.children)-1 {
		rightID := parent.children[ci+1]
		right, err := t.loadLeaf(rightID)
		if err != nil {
			return disk.InvalidPage, err
		}
		if len(right.keys) > t.minLeafEntries() {
			n.keys = append(n.keys, right.keys[0])
			n.values = append(n.values, right.values[0])
			right.keys = right.keys[1:]
			right.values = right.values[1:]
			parent.seps[ci] = t.separator(n.keys[len(n.keys)-1], right.keys[0])
			if parent.children[ci], err = w.putLeaf(leafID, n); err != nil {
				return disk.InvalidPage, err
			}
			if parent.children[ci+1], err = w.putLeaf(rightID, right); err != nil {
				return disk.InvalidPage, err
			}
			return t.writeParentAndReplaceUp(w, path, len(path)-1)
		}
	}
	// Merge with a sibling: always merge the right node of the pair
	// into the left. The merged leaf replaces the left half; the right
	// half retires.
	var leftID, rightID disk.PageID
	var sepIdx int
	var left, right *leafNode
	var err error
	if ci > 0 {
		leftID, rightID, sepIdx = parent.children[ci-1], leafID, ci-1
		if left, err = t.loadLeaf(leftID); err != nil {
			return disk.InvalidPage, err
		}
		right = n
	} else {
		leftID, rightID, sepIdx = leafID, parent.children[ci+1], ci
		left = n
		if right, err = t.loadLeaf(rightID); err != nil {
			return disk.InvalidPage, err
		}
	}
	left.keys = append(left.keys, right.keys...)
	left.values = append(left.values, right.values...)
	if parent.children[sepIdx], err = w.putLeaf(leftID, left); err != nil {
		return disk.InvalidPage, err
	}
	w.retire(rightID)
	nv.leaves--
	parent.removeAt(sepIdx)
	return t.rebalanceUpward(w, nv, path, len(path)-1)
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
		curOld := path[pi].id
		if pi == 0 && len(cur.children) == 1 && nv.height > 1 {
			// Collapse the root: its only child becomes the root.
			w.retire(curOld)
			nv.height--
			return cur.children[0], nil
		}
		if pi == 0 || len(cur.children) >= t.minChildren() {
			// The root may shrink freely.
			return t.writeParentAndReplaceUp(w, path, pi)
		}

		parent := path[pi-1].n
		ci := path[pi-1].child

		// Borrow from the left sibling: rotate through the parent.
		if ci > 0 {
			leftID := parent.children[ci-1]
			left, err := t.loadInternal(leftID)
			if err != nil {
				return disk.InvalidPage, err
			}
			if len(left.children) > t.minChildren() {
				lastChild := left.children[len(left.children)-1]
				lastSep := left.seps[len(left.seps)-1]
				left.children = left.children[:len(left.children)-1]
				left.seps = left.seps[:len(left.seps)-1]
				cur.children = append([]disk.PageID{lastChild}, cur.children...)
				cur.seps = append([][]byte{parent.seps[ci-1]}, cur.seps...)
				parent.seps[ci-1] = lastSep
				if parent.children[ci-1], err = w.putInternal(leftID, left); err != nil {
					return disk.InvalidPage, err
				}
				if parent.children[ci], err = w.putInternal(curOld, cur); err != nil {
					return disk.InvalidPage, err
				}
				return t.writeParentAndReplaceUp(w, path, pi-1)
			}
		}
		// Borrow from the right sibling.
		if ci < len(parent.children)-1 {
			rightID := parent.children[ci+1]
			right, err := t.loadInternal(rightID)
			if err != nil {
				return disk.InvalidPage, err
			}
			if len(right.children) > t.minChildren() {
				firstChild := right.children[0]
				firstSep := right.seps[0]
				right.children = right.children[1:]
				right.seps = right.seps[1:]
				cur.children = append(cur.children, firstChild)
				cur.seps = append(cur.seps, parent.seps[ci])
				parent.seps[ci] = firstSep
				if parent.children[ci], err = w.putInternal(curOld, cur); err != nil {
					return disk.InvalidPage, err
				}
				if parent.children[ci+1], err = w.putInternal(rightID, right); err != nil {
					return disk.InvalidPage, err
				}
				return t.writeParentAndReplaceUp(w, path, pi-1)
			}
		}
		// Merge with a sibling, pulling the parent separator down.
		var leftID, rightID disk.PageID
		var sepIdx int
		var left, right *internalNode
		var err error
		if ci > 0 {
			leftID, rightID, sepIdx = parent.children[ci-1], curOld, ci-1
			if left, err = t.loadInternal(leftID); err != nil {
				return disk.InvalidPage, err
			}
			right = cur
		} else {
			leftID, rightID, sepIdx = curOld, parent.children[ci+1], ci
			left = cur
			if right, err = t.loadInternal(rightID); err != nil {
				return disk.InvalidPage, err
			}
		}
		left.seps = append(left.seps, parent.seps[sepIdx])
		left.seps = append(left.seps, right.seps...)
		left.children = append(left.children, right.children...)
		if len(left.children) > t.fanout {
			return disk.InvalidPage, fmt.Errorf("btree: merge overflowed internal node (%d children)", len(left.children))
		}
		if parent.children[sepIdx], err = w.putInternal(leftID, left); err != nil {
			return disk.InvalidPage, err
		}
		w.retire(rightID)
		parent.removeAt(sepIdx)
		pi--
	}
}
