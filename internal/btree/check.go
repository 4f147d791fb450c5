package btree

import (
	"bytes"
	"fmt"

	"probe/internal/disk"
)

// CheckInvariants pins the current committed version and verifies its
// structural invariants. It is used by tests after randomized
// workloads; the checks are:
//
//  1. every leaf's keys are strictly increasing, and keys increase
//     strictly across leaves taken in order (the global key order);
//  2. leaf occupancy is within [minLeaf, leafCap] except for a root
//     leaf, and the leaf's image fits the page (viewLeaf);
//  3. internal occupancy is within [minChildren, fanout] except for
//     the root (>= 2 children);
//  4. every key in child i satisfies seps[i-1] <= enc(key) < seps[i];
//  5. the entry count and leaf count match the version's counters;
//  6. all leaves are at the same depth (the version's height);
//  7. no stored key sets a bit of Hi below the tree's KeyBits;
//  8. every leaf is stored in its canonical frame (frameOf): the z
//     base is its first z, the id bases those that give the smallest
//     image, ascending with unused slots zero, and each width the
//     fewest bits that hold its deltas; and its image is the one
//     encodeLeaf makes of its keys in that frame, so each block base
//     is the z of the block's first key.
//
// Because the walk runs against one pinned version, it is safe (and
// meaningful) concurrently with writers: it validates the committed
// state the snapshot observes.
func (t *Tree) CheckInvariants() error {
	s := t.Snapshot()
	defer s.Release()
	return s.CheckInvariants()
}

// CheckInvariants verifies the snapshot's version of the tree; see
// Tree.CheckInvariants.
func (s *Snapshot) CheckInvariants() error {
	if s.released {
		return fmt.Errorf("btree: CheckInvariants on released snapshot")
	}
	t, v := s.t, s.v
	type visit struct {
		id    disk.PageID
		depth int
		lo    []byte // inclusive lower bound (nil = none)
		hi    []byte // exclusive upper bound (nil = none)
	}
	leaves := 0
	entries := 0
	var lastKey Key
	haveLast := false
	stack := []visit{{id: v.root, depth: 1}}
	// Each page is checked on its pool image, which never changes; the
	// bounds of an internal page's children point into it.
	var buf [encodedKeyLen]byte
	canon := make([]byte, t.pageSize)
	// Depth-first, leaves visited left to right.
	for len(stack) > 0 {
		vi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		data, err := t.pool.View(vi.id, nil)
		if err != nil {
			return err
		}
		switch typ := nodeType(data[0]); typ {
		case leafType:
			var p leafPage
			if err := p.view(data, t.keyLen); err != nil {
				return err
			}
			if vi.depth != v.height {
				return fmt.Errorf("leaf %d at depth %d, want %d", vi.id, vi.depth, v.height)
			}
			if vi.id != v.root && p.count < t.minLeaf {
				return fmt.Errorf("leaf %d underfull: %d < %d", vi.id, p.count, t.minLeaf)
			}
			if p.count > t.leafCap {
				return fmt.Errorf("leaf %d overfull: %d > %d", vi.id, p.count, t.leafCap)
			}
			es, err := decodeLeaf(nil, data, t.keyLen)
			if err != nil {
				return err
			}
			for i, e := range es {
				k := e.Key
				if haveLast && !lastKey.Less(k) {
					return fmt.Errorf("leaf %d breaks global key order at entry %d", vi.id, i)
				}
				lastKey, haveLast = k, true
				if err := t.checkKey(k); err != nil {
					return fmt.Errorf("leaf %d entry %d: %w", vi.id, i, err)
				}
				enc := t.encodeKey(k, &buf)
				if vi.lo != nil && sepCompare(vi.lo, enc) > 0 {
					return fmt.Errorf("leaf %d key %v below bound", vi.id, k)
				}
				if vi.hi != nil && sepCompare(vi.hi, enc) <= 0 {
					return fmt.Errorf("leaf %d key %v above bound", vi.id, k)
				}
			}
			// The header's widths, the base key and the id bases are the
			// frame, so a leaf in any other frame fails this comparison too.
			f := frameOf(es, t.keyLen)
			if encodeLeaf(canon, es, f, t.keyLen); !bytes.Equal(canon, data) {
				return fmt.Errorf("leaf %d is not its canonical image (frame %+v, canonical %+v)", vi.id, p.frame, f)
			}
			entries += p.count
			leaves++
		case internalType:
			p, err := viewInternal(data)
			if err != nil {
				return err
			}
			minC := t.minChildren()
			if vi.id == v.root {
				minC = 2
			}
			if p.children() < minC {
				return fmt.Errorf("internal %d underfull: %d children < %d", vi.id, p.children(), minC)
			}
			if p.children() > t.fanout {
				return fmt.Errorf("internal %d overfull: %d children > %d", vi.id, p.children(), t.fanout)
			}
			// Child i is bounded by separators i-1 and i, the page's
			// own bounds standing in at the ends. Separators can only
			// be read front to back and the stack pops its last entry
			// first, so the visits are pushed in order, then reversed.
			base := len(stack)
			lo, off := vi.lo, p.firstSep()
			for i := 0; i < p.count; i++ {
				sep, next, err := p.sepAt(off)
				if err != nil {
					return err
				}
				if i > 0 && sepCompare(lo, sep) >= 0 {
					return fmt.Errorf("internal %d separators not increasing at %d", vi.id, i)
				}
				stack = append(stack, visit{id: p.child(i), depth: vi.depth + 1, lo: lo, hi: sep})
				lo, off = sep, next
			}
			stack = append(stack, visit{id: p.child(p.count), depth: vi.depth + 1, lo: lo, hi: vi.hi})
			for i, j := base, len(stack)-1; i < j; i, j = i+1, j-1 {
				stack[i], stack[j] = stack[j], stack[i]
			}
		default:
			return fmt.Errorf("page %d has unknown node type %d", vi.id, typ)
		}
	}
	if entries != v.count {
		return fmt.Errorf("tree holds %d entries, counter says %d", entries, v.count)
	}
	if leaves != v.leaves {
		return fmt.Errorf("tree has %d leaves, counter says %d", leaves, v.leaves)
	}
	return nil
}
