// Package btree implements the paged prefix B+-tree used in the
// paper's experiments (Section 5.3.2: "we implemented a prefix B+tree
// to store points in z order"). A key is a z value of up to 64 bits
// plus a 64-bit record id making every key unique; a tree encodes only
// the bytes of the z value its grid can set (Config.KeyBits), so an
// encoded key is 9 to 16 bytes, and a leaf stores fewer: the distance
// from a frame of reference in its header (node.go). A separator in an
// internal node is the shortest prefix of its right subtree's first
// key that sorts above its left subtree's last, as in a prefix
// B+-tree, padded with zeros to a whole key, so that a node holds its
// separators at a fixed stride and a descent binary-searches them.
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
	"encoding/binary"
	"fmt"
	"math/bits"
)

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

// encodedKeyLen is the length of the longest encoded key.
const encodedKeyLen = 16

// keyLenFor returns the encoded length of a key whose Hi may set its
// leading keyBits bits: those bits rounded up to whole bytes, then Lo.
func keyLenFor(keyBits int) int { return (keyBits+7)/8 + 8 }

// ceil returns k at the resolution of keys of keyLen bytes, which hold
// the leading keyLen-8 bytes of Hi, then Lo. A z value is
// left-justified, so the bytes of Hi left out are its low ones, zero
// in every key the tree stores (Tree.checkKey), and ceil returns such
// a k as it is. A search key may set them (a sentinel such as
// Key{Hi: ^uint64(0)}): it becomes the smallest key of the length
// above it, which is at or below every stored key the search key is
// below, or the largest key of the length, never a wrapped one, when
// none is above it. A descent searches for it once so rounded.
func (k Key) ceil(keyLen int) Key {
	low := ^uint64(0) >> (8 * uint(keyLen-8))
	if k.Hi&low == 0 {
		return k
	}
	if hi := k.Hi | low; hi != ^uint64(0) {
		return Key{Hi: hi + 1}
	}
	return Key{Hi: ^low, Lo: ^uint64(0)}
}

// encode serializes the key, rounded up by ceil, into buf, whose
// length is the tree's key length: the leading len(buf)-8 bytes of Hi,
// then Lo, big-endian so that lexicographic byte order equals key
// order.
func (k Key) encode(buf []byte) {
	k = k.ceil(len(buf))
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

// separator returns the separator between a subtree whose largest key
// is leftMax and its right neighbour, whose smallest is rightMin: the
// shortest prefix of rightMin's encoding that sorts above leftMax's,
// padded with zeros. It keeps rightMin's bytes up to the first that
// differs from leftMax's, so leftMax < separator <= rightMin. A stored
// key sets no bit of Hi its encoding leaves out, so the bytes kept are
// the same at any key length.
func separator(leftMax, rightMin Key) Key {
	if d := leftMax.Hi ^ rightMin.Hi; d != 0 {
		return Key{Hi: rightMin.Hi & prefixMask(d)}
	}
	if leftMax.Lo == rightMin.Lo {
		panic("btree: separator of equal keys")
	}
	return Key{Hi: rightMin.Hi, Lo: rightMin.Lo & prefixMask(leftMax.Lo^rightMin.Lo)}
}

// prefixMask keeps the bytes of a word up to the first that d, not
// zero, sets a bit of.
func prefixMask(d uint64) uint64 { return ^uint64(0) << (56 - bits.LeadingZeros64(d)&^7) }
