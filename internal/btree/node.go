package btree

import (
	"encoding/binary"
	"fmt"
	"sort"

	"probe/internal/disk"
)

// Page layouts. All integers little-endian unless they are encoded
// keys (which are big-endian so byte order matches key order).
//
// Leaf:     [type u8][count u16]
//           count x [key keyLen B][value valueSize B]
// Internal: [type u8][count u16]            (count = number of seps)
//           (count+1) x [child u32]
//           count x [sepLen u16][sep bytes]
//
// keyLen is the tree's key length (key.go): 8 bytes of Lo after as
// many bytes of Hi as Config.KeyBits needs. Leaves carry no sibling
// links: copy-on-write could not maintain them (a neighbor's link
// would dangle at the old page version), so a cursor finds the next
// leaf through its descent path.
//
// Reads never decode a page. They search the image through the
// leafPage and internalPage views below: a point lookup views the
// pool frame under its pin, a cursor views its own copy of the image.
// leafNode and internalNode are the copy-on-write path's builder: a
// writer decodes the pages it is about to replace, edits the decoded
// form, and encodes the result into fresh pages.

type nodeType byte

const (
	leafType     nodeType = 1
	internalType nodeType = 2
)

const (
	leafHeaderLen     = 1 + 2
	internalHeaderLen = 1 + 2
)

var errInternalOverflow = fmt.Errorf("btree: internal node overflows page")

// pageHeader checks the image's type byte and returns its entry
// count.
func pageHeader(data []byte, want nodeType, headerLen int, kind string) (int, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("btree: page of %d bytes is shorter than a node header", len(data))
	}
	if nodeType(data[0]) != want {
		return 0, fmt.Errorf("btree: page is not %s (type %d)", kind, data[0])
	}
	return int(binary.LittleEndian.Uint16(data[1:3])), nil
}

// leafPage is a read-only view of a leaf page image. Leaves are
// fixed-stride, so entry i is found by arithmetic and search is a
// binary search on the bytes.
type leafPage struct {
	data   []byte // the whole image
	count  int
	keyLen int
	stride int
}

func viewLeaf(data []byte, keyLen, valueSize int) (leafPage, error) {
	count, err := pageHeader(data, leafType, leafHeaderLen, "a leaf")
	if err != nil {
		return leafPage{}, err
	}
	stride := keyLen + valueSize
	if leafHeaderLen+count*stride > len(data) {
		return leafPage{}, fmt.Errorf("btree: leaf overflows page (%d entries)", count)
	}
	return leafPage{data: data, count: count, keyLen: keyLen, stride: stride}, nil
}

// encKey returns entry i's encoded key inside the image.
func (p leafPage) encKey(i int) []byte {
	off := leafHeaderLen + i*p.stride
	return p.data[off : off+p.keyLen]
}

func (p leafPage) key(i int) Key { return decodeKey(p.encKey(i)) }

// value returns entry i's value bytes inside the image.
func (p leafPage) value(i int) []byte {
	end := leafHeaderLen + (i+1)*p.stride
	return p.data[end-p.stride+p.keyLen : end : end]
}

// search returns the index of the first key >= k in the leaf.
func (p leafPage) search(k Key) int {
	return sort.Search(p.count, func(i int) bool { return !p.key(i).Less(k) })
}

// internalPage is a read-only view of an internal page image.
// Children sit in a fixed array and are found by arithmetic;
// separators are variable-length with no slot table, so they are read
// front to back.
type internalPage struct {
	data  []byte
	count int // separators; the page has count+1 children
}

func viewInternal(data []byte) (internalPage, error) {
	count, err := pageHeader(data, internalType, internalHeaderLen, "internal")
	if err != nil {
		return internalPage{}, err
	}
	if internalHeaderLen+4*(count+1) > len(data) {
		return internalPage{}, errInternalOverflow
	}
	return internalPage{data: data, count: count}, nil
}

func (p internalPage) children() int { return p.count + 1 }

func (p internalPage) child(i int) disk.PageID {
	return disk.PageID(binary.LittleEndian.Uint32(p.data[internalHeaderLen+4*i:]))
}

// firstSep returns the offset of the first separator.
func (p internalPage) firstSep() int { return internalHeaderLen + 4*p.children() }

// sepAt returns the separator stored at off, a slice of the image,
// and the offset of the one after it.
func (p internalPage) sepAt(off int) (sep []byte, next int, err error) {
	if off+2 > len(p.data) {
		return nil, 0, errInternalOverflow
	}
	start := off + 2
	end := start + int(binary.LittleEndian.Uint16(p.data[off:]))
	if end > len(p.data) {
		return nil, 0, errInternalOverflow
	}
	return p.data[start:end:end], end, nil
}

// childIndex returns the index of the child subtree that may contain
// the encoded key: the number of separators <= enc. Separators
// increase, so the scan stops at the first one above enc; those past
// it are not read, and so not checked against the page bounds.
func (p internalPage) childIndex(enc []byte) (int, error) {
	off := p.firstSep()
	for i := 0; i < p.count; i++ {
		sep, next, err := p.sepAt(off)
		if err != nil {
			return 0, err
		}
		if sepCompare(sep, enc) > 0 {
			return i, nil
		}
		off = next
	}
	return p.count, nil
}

// leafNode is the decoded form of a leaf page.
type leafNode struct {
	keys   []Key
	values [][]byte
}

// internalNode is the decoded form of an internal page:
// len(children) == len(seps) + 1, and subtree children[i] holds the
// keys k with seps[i-1] <= enc(k) < seps[i] (bounds omitted at the
// ends).
type internalNode struct {
	children []disk.PageID
	seps     [][]byte
}

func decodeLeaf(data []byte, keyLen, valueSize int) (*leafNode, error) {
	p, err := viewLeaf(data, keyLen, valueSize)
	if err != nil {
		return nil, err
	}
	n := &leafNode{keys: make([]Key, p.count), values: make([][]byte, p.count)}
	for i := range n.keys {
		n.keys[i] = p.key(i)
		n.values[i] = append(make([]byte, 0, valueSize), p.value(i)...)
	}
	return n, nil
}

// initLeaf makes data the image of a leaf of count entries, all of
// them still to be written by putLeafEntry. The page is zeroed first,
// so an image rewritten in place is canonical.
func initLeaf(data []byte, count int) {
	for i := range data {
		data[i] = 0
	}
	data[0] = byte(leafType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(count))
}

// putLeafEntry writes entry i of a leaf image.
func putLeafEntry(data []byte, i, keyLen, valueSize int, k Key, value []byte) {
	off := leafHeaderLen + i*(keyLen+valueSize)
	k.encode(data[off : off+keyLen])
	copy(data[off+keyLen:off+keyLen+valueSize], value)
}

func (n *leafNode) encode(data []byte, keyLen, valueSize int) {
	initLeaf(data, len(n.keys))
	for i, k := range n.keys {
		putLeafEntry(data, i, keyLen, valueSize, k, n.values[i])
	}
}

// decodeInternal makes one copy of the image up to its last separator
// and slices seps out of the copy, as the view slices them out of the
// page: editing a node replaces whole separators, never their bytes.
func decodeInternal(data []byte) (*internalNode, error) {
	p, err := viewInternal(data)
	if err != nil {
		return nil, err
	}
	n := &internalNode{children: make([]disk.PageID, p.children()), seps: make([][]byte, p.count)}
	for i := range n.children {
		n.children[i] = p.child(i)
	}
	end := p.firstSep()
	for range n.seps {
		if _, end, err = p.sepAt(end); err != nil {
			return nil, err
		}
	}
	p.data = append([]byte(nil), data[:end]...)
	off := p.firstSep()
	for i := range n.seps {
		n.seps[i], off, _ = p.sepAt(off)
	}
	return n, nil
}

func (n *internalNode) encode(data []byte) {
	for i := range data {
		data[i] = 0
	}
	data[0] = byte(internalType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.seps)))
	off := internalHeaderLen
	for _, c := range n.children {
		binary.LittleEndian.PutUint32(data[off:off+4], uint32(c))
		off += 4
	}
	for _, s := range n.seps {
		binary.LittleEndian.PutUint16(data[off:off+2], uint16(len(s)))
		off += 2
		copy(data[off:off+len(s)], s)
		off += len(s)
	}
}

// childIndex returns the index of the child subtree that may contain
// the encoded key: the number of separators <= enc.
func (n *internalNode) childIndex(enc []byte) int {
	return sort.Search(len(n.seps), func(i int) bool { return sepCompare(n.seps[i], enc) > 0 })
}

// insertAt inserts a separator and its right child at position i.
func (n *internalNode) insertAt(i int, sep []byte, rightChild disk.PageID) {
	n.seps = append(n.seps, nil)
	copy(n.seps[i+1:], n.seps[i:])
	n.seps[i] = sep
	n.children = append(n.children, 0)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = rightChild
}

// removeAt removes separator i and child i+1 (used when merging the
// children on either side of separator i).
func (n *internalNode) removeAt(i int) {
	n.seps = append(n.seps[:i], n.seps[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}
