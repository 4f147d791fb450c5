package btree

import (
	"slices"

	"probe/internal/disk"
)

// load helpers of the copy-on-write path: a writer decodes each page
// it is about to replace into the builder form (node.go), reading the
// page's image as readers do.

// loadLeaf appends the entries of leaf id to es.
func (t *Tree) loadLeaf(es []Entry, id disk.PageID) ([]Entry, error) {
	data, err := t.pool.View(id, nil)
	if err != nil {
		return nil, err
	}
	return decodeLeaf(es, data, t.keyLen)
}

// viewInternal views internal page id.
func (t *Tree) viewInternal(id disk.PageID) (internalPage, error) {
	data, err := t.pool.View(id, nil)
	if err != nil {
		return internalPage{}, err
	}
	return viewInternal(data, t.keyLen)
}

func (t *Tree) loadInternal(id disk.PageID) (*internalNode, error) {
	p, err := t.viewInternal(id)
	if err != nil {
		return nil, err
	}
	return decodeInternal(p), nil
}

func (t *Tree) minChildren() int { return t.fanout / 2 }

// Delete removes the entry with the given key. It returns false when
// the key is absent. An underfull leaf is re-cut with its neighbours,
// into one leaf fewer when they fit, and an underfull internal node
// likewise (putLeafAt), so the tree adapts gracefully as the point set
// shrinks (the third requirement of Section 2). Like Insert, the delete
// is copy-on-write: every touched page of the published tree is
// replaced by a fresh page and the result published as one new version,
// leaving concurrent snapshot readers on the old one.
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
	path, leafID, err := t.descendPath(v, k)
	if err != nil {
		return nil, false, err
	}
	n, err := t.loadLeaf(t.leaf[:0], leafID)
	if err != nil {
		return nil, false, err
	}
	i := searchLeaf(n, k)
	if i >= len(n) || n[i].Key != k {
		return nil, false, nil
	}
	n = slices.Delete(n, i, i+1)
	nv := &version{seq: v.seq + 1, height: v.height, count: v.count - 1, leaves: v.leaves}
	if nv.root, err = t.putLeafAt(w, nv, path, leafID, n); err != nil {
		return nil, false, err
	}
	return nv, true, nil
}
