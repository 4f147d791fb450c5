// Package btree implements the paged prefix B+-tree used in the
// paper's experiments (Section 5.3.2: "we implemented a prefix B+tree
// to store points in z order"). A key is a z value of up to 64 bits
// plus a 64-bit record id making every key unique; a tree encodes only
// the bytes of the z value its grid can set (Config.KeyBits), so an
// encoded key is 9 to 16 bytes, and a leaf stores fewer: the distance
// from a frame of reference in its header (node.go). Separators in
// internal nodes are prefix-compressed to the shortest byte string
// that separates the adjacent subtrees, as in a prefix B+-tree.
//
// The tree lives on disk.Pool pages, so every access flows through
// the buffer pool and is counted — the experiment harness reproduces
// the paper's page-access figures from those counters. The cursor
// provides the sequential access the merge algorithms need (via its
// cached descent path) and the random access (SeekGE) used by the
// skip optimization of Section 3.3.
//
// The tree is multi-versioned: writers are copy-on-write and publish
// immutable versions, readers pin a version and run lock-free. See
// version.go for the MVCC design and docs/mvcc.md for the full
// lifecycle.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// sepCompare compares a (possibly truncated) separator against an
// encoded key or another separator; bytes.Compare's lexicographic
// order is exactly the order required (a proper prefix sorts before
// its extensions).
func sepCompare(a, b []byte) int { return bytes.Compare(a, b) }

// Key is a tree key: Hi carries the z value, Lo a discriminator (the
// record id) that makes keys unique even when z values collide (two
// points on the same pixel). Keys order lexicographically on
// (Hi, Lo).
type Key struct {
	Hi, Lo uint64
}

// Less reports whether k orders strictly before o.
func (k Key) Less(o Key) bool {
	if k.Hi != o.Hi {
		return k.Hi < o.Hi
	}
	return k.Lo < o.Lo
}

// Compare returns -1, 0 or +1.
func (k Key) Compare(o Key) int {
	switch {
	case k.Less(o):
		return -1
	case o.Less(k):
		return 1
	}
	return 0
}

// String implements fmt.Stringer.
func (k Key) String() string { return fmt.Sprintf("key(%016x,%016x)", k.Hi, k.Lo) }

// encodedKeyLen is the length of the longest encoded key, the size of
// the stack buffers keys are encoded into. A tree's own key length is
// Tree.keyLen.
const encodedKeyLen = 16

// keyLenFor returns the encoded length of a key whose Hi may set its
// leading keyBits bits: those bits rounded up to whole bytes, then Lo.
func keyLenFor(keyBits int) int { return (keyBits+7)/8 + 8 }

// encode serializes the key into buf, whose length is the tree's key
// length: the leading len(buf)-8 bytes of Hi, then Lo, big-endian so
// that lexicographic byte order equals key order. A z value is
// left-justified, so the bytes of Hi left out are its low ones, zero
// in every key the tree stores (Tree.checkKey). A search key may set
// them (a sentinel such as Key{Hi: ^uint64(0)}): it encodes as the
// smallest key of this length above it, which is at or below every
// stored key the search key is below, and as the largest key of the
// length, never a wrapped one, when none is above it.
func (k Key) encode(buf []byte) {
	if low := ^uint64(0) >> (8 * uint(len(buf)-8)); k.Hi&low != 0 {
		if k.Hi |= low; k.Hi == ^uint64(0) {
			k.Lo = ^uint64(0)
		} else {
			k.Hi, k.Lo = k.Hi+1, 0
		}
	}
	binary.BigEndian.PutUint64(buf, k.Hi)
	binary.BigEndian.PutUint64(buf[len(buf)-8:], k.Lo)
}

// decodeKey is the inverse of encode on a buffer of the same length.
func decodeKey(buf []byte) Key {
	drop := 8 * uint(encodedKeyLen-len(buf))
	return Key{
		Hi: binary.BigEndian.Uint64(buf) >> drop << drop,
		Lo: binary.BigEndian.Uint64(buf[len(buf)-8:]),
	}
}

// Separators are byte strings compared with bytes.Compare, whose
// lexicographic order (a proper prefix sorts before its extensions)
// is exactly the prefix-B+-tree separator order. The invariant
// between adjacent subtrees is sep > enc(left max) and
// sep <= enc(right min).

// shortestSeparator returns the shortest byte string s such that
// a < s <= b in prefix-aware lexicographic order, for a < b. This is
// the prefix compression of the prefix B+-tree: the separator stored
// is only as long as needed to distinguish the two subtrees.
func shortestSeparator(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	// b[:i+1] is > a (differs at byte i with b[i] > a[i]) and <= b.
	if i >= len(b) {
		panic("btree: separator of non-increasing keys")
	}
	s := make([]byte, i+1)
	copy(s, b[:i+1])
	return s
}
