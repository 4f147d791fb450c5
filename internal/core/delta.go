package core

import (
	"context"
	"slices"

	"probe/internal/btree"
	"probe/internal/obs"
)

// A transaction reads its own writes through the one merge. It pins a
// snapshot and records each write on it as a key delta: every (z, id)
// key whose presence differs from the snapshot's, marked inserted or
// deleted. A search of the snapshot then steps the sequence P with the
// delta applied (pointSeq): the cursor's keys with the deletions
// skipped and the insertions merged in key order. RANGE, NEAREST and
// the region join see the transaction's view with no pass of their
// own over the answer.

// delta is the key delta of a snapshot that takes writes. keys maps a
// key to true when the writes inserted it and to false when they
// deleted it; sorted holds the same keys in key order, rebuilt on the
// first read after a write; n is the inserted keys less the deleted.
type delta struct {
	keys   map[btree.Key]bool
	sorted []deltaKey
	stale  bool
	n      int
}

type deltaKey struct {
	key btree.Key
	ins bool
}

// Apply makes m's key present in the snapshot's view (an insert) or
// absent from it (a delete), and reports whether the view changed: it
// does not for an insert of a key the view holds, nor for a delete of
// one it lacks. A write that restores the snapshot's own state drops
// the key from the delta. A snapshot that takes writes serves one
// goroutine, and no write may land while one of its searches runs.
func (s *IndexSnapshot) Apply(m btree.Mutation) (bool, error) {
	ins := !m.Delete
	if s.d == nil {
		s.d = &delta{keys: make(map[btree.Key]bool)}
	}
	d := s.d
	if was, ok := d.keys[m.Key]; ok {
		if was == ins {
			return false, nil
		}
		delete(d.keys, m.Key)
	} else {
		_, in, err := s.snap.Get(m.Key)
		if err != nil || in == ins {
			return false, err
		}
		d.keys[m.Key] = ins
	}
	d.stale = true
	if ins {
		d.n++
	} else {
		d.n--
	}
	return true, nil
}

// list returns the delta in key order. A rebuild takes a new array, so
// a search still stepping the old one is unaffected.
func (d *delta) list() []deltaKey {
	if d.stale {
		d.sorted = make([]deltaKey, 0, len(d.keys))
		for k, ins := range d.keys {
			d.sorted = append(d.sorted, deltaKey{k, ins})
		}
		slices.SortFunc(d.sorted, func(a, b deltaKey) int { return a.key.Compare(b.key) })
		d.stale = false
	}
	return d.sorted
}

// pointSeq is the sequence P a search steps: the tree cursor's keys,
// with a delta's deletions skipped and its insertions merged in key
// order. Without a delta it is the cursor's keys. An inserted key is
// never the snapshot's, so the two never offer the same key.
type pointSeq struct {
	pc    *btree.Cursor
	d     []deltaKey // d[j:] lies at or after the current key
	j     int
	in    bool // the cursor is on an entry
	fromD bool // the current key is d[j], an insertion
	key   btree.Key
}

// points aims the scratch's sequence at the reader's version and delta.
func (ix *reader) points(s *scratch, ctx context.Context, sp *obs.Span) *pointSeq {
	s.ps = pointSeq{pc: ix.cursor(s, ctx, sp)}
	if ix.d != nil {
		s.ps.d = ix.d.list()
	}
	return &s.ps
}

// Key returns the current key; the last step must have reported true.
func (ps *pointSeq) Key() btree.Key { return ps.key }

// SeekGE positions the sequence on its first key >= k.
func (ps *pointSeq) SeekGE(k btree.Key) (bool, error) {
	var err error
	ps.in, err = ps.pc.SeekGE(k)
	if len(ps.d) > 0 {
		ps.j, _ = slices.BinarySearchFunc(ps.d, k, func(e deltaKey, k btree.Key) int { return e.key.Compare(k) })
	}
	return ps.settle(err)
}

// Next advances to the next key.
func (ps *pointSeq) Next() (bool, error) {
	if ps.fromD {
		ps.j++
		return ps.settle(nil)
	}
	var err error
	ps.in, err = ps.pc.Next()
	if ps.in && ps.j == len(ps.d) { // past the delta: the cursor's key
		ps.key = ps.pc.Key()
		return true, nil
	}
	return ps.settle(err)
}

// settle makes the current key the lesser of the cursor's and the
// delta's next insertion, stepping the cursor past deleted keys.
func (ps *pointSeq) settle(err error) (bool, error) {
	for ; err == nil; ps.in, err = ps.pc.Next() {
		for ps.j < len(ps.d) {
			e := ps.d[ps.j]
			if ps.in && e.key.Compare(ps.pc.Key()) >= 0 {
				break
			}
			if e.ins {
				ps.key, ps.fromD = e.key, true
				return true, nil
			}
			ps.j++ // a deletion the cursor never reached
		}
		if !ps.in {
			return false, nil
		}
		ps.fromD = false
		if ps.j == len(ps.d) || ps.d[ps.j].key != ps.pc.Key() {
			ps.key = ps.pc.Key()
			return true, nil
		}
		ps.j++ // the cursor's key is deleted
	}
	return false, err
}
