package btree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"probe/internal/disk"
)

// Page layouts. All integers little-endian unless they are keys or
// key deltas (which are big-endian so byte order matches key order).
//
// Leaf:     [type u8][count u16][zw u8][iw u8 | sel<<4][base key keyLen B]
//           (2^sel - 1) x [id base 8 B]
//           count x [z delta zw B][id field iw B]
// Internal: [type u8][count u16]            (count = number of seps)
//           (count+1) x [child u32]
//           count x [sepLen u16][sep bytes]
//
// keyLen is the tree's key length (key.go): 8 bytes of Lo after as
// many bytes of Hi as Config.KeyBits needs, the z bytes. A leaf stores
// its keys against a frame of reference: the base key holds the z
// value of the first key and the smallest id, and an entry holds its z
// as a distance from the base's in zw bytes. Its id field holds, in its
// top sel bits (0, 1 or 2), a selector among 2^sel id bases, and below
// them the id's distance from the base it selects. The first base is
// the base key's; the others follow the base key in ascending order,
// a slot not used being zero. The frame is canonical (frameOf): the
// widths are the fewest bytes that hold the largest distances, and a
// leaf takes bases only when they make its image smaller, so an image
// is a function of its entries alone and one rewritten in place is
// byte-equal to a fresh one. Entries stay fixed-stride within a page,
// so a search is still a binary search of the image, and a key decodes
// without allocating.
//
// Leaves carry no sibling links: copy-on-write could not maintain them
// (a neighbor's link would dangle at the old page version), so a
// cursor finds the next leaf through its descent path.
//
// Reads never decode a page. They search the image through the
// leafPage and internalPage views below: a point lookup views the
// pool frame under its pin, a cursor views its own copy of the image.
// A leaf's entries ([]Entry, decodeLeaf) and internalNode are the
// copy-on-write path's builder: a writer decodes the pages it is about
// to replace, edits the decoded form, and encodes the result into
// fresh pages. A leaf that overflows may replace its neighbours too:
// it spreads its entries over them before it splits (tree.go,
// splitLeaf).

type nodeType byte

const (
	leafType     nodeType = 1
	internalType nodeType = 2
)

const (
	leafBaseOff       = 1 + 2 + 2 // the base key follows type, count and widths
	internalHeaderLen = 1 + 2
	maxSel            = 2 // most selector bits of an id field
	maxIDBases        = 1 << maxSel
)

// leafHeaderLen is the length of a leaf header for keys of keyLen
// bytes, before its extra id bases.
func leafHeaderLen(keyLen int) int { return leafBaseOff + keyLen }

// zDrop is the number of low bits of Key.Hi a key of keyLen bytes
// leaves out: a stored z value is Hi >> zDrop.
func zDrop(keyLen int) uint { return uint(128 - 8*keyLen) }

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

// leafPage is a read-only view of a leaf page image. Entries are
// fixed-stride within the page, so entry i is found by arithmetic and
// search is a binary search on the bytes.
type leafPage struct {
	data          []byte // the whole image
	count         int
	frame         leafFrame
	first         int    // offset of entry 0
	stride        int    // zw + iw
	zAt, idAt     int    // offsets of the 8 bytes ending with entry 0's z, id
	drop          uint   // zDrop of the tree's key length
	zMask, idMask uint64 // the low zw and iw bytes
	shift         uint   // id offset bits: 8*iw - sel
	// adj[j] is base j less selector j in place, so that an id field
	// that selects base j decodes as adj[j] plus the field.
	adj [maxIDBases]uint64
}

func viewLeaf(data []byte, keyLen int) (leafPage, error) {
	count, err := pageHeader(data, leafType, leafHeaderLen(keyLen), "a leaf")
	if err != nil {
		return leafPage{}, err
	}
	f := leafFrame{zw: int(data[3]), iw: int(data[4] & 0x0f), sel: int(data[4] >> 4)}
	if f.zw > keyLen-8 || f.iw > 8 {
		return leafPage{}, fmt.Errorf("btree: leaf frame of %d+%d bytes is wider than a %d-byte key", f.zw, f.iw, keyLen)
	}
	if f.sel > maxSel || f.sel > 0 && f.iw == 0 {
		return leafPage{}, fmt.Errorf("btree: leaf frame selects among %d id bases in %d-byte id fields", 1<<f.sel, f.iw)
	}
	first, stride := f.headerLen(keyLen), f.zw+f.iw
	if first+count*stride > len(data) {
		return leafPage{}, fmt.Errorf("btree: leaf overflows page (%d entries)", count)
	}
	base := decodeKey(data[leafBaseOff : leafBaseOff+keyLen])
	f.z, f.ids[0] = base.Hi>>zDrop(keyLen), base.Lo
	for j := 1; j < 1<<f.sel; j++ {
		f.ids[j] = binary.BigEndian.Uint64(data[leafHeaderLen(keyLen)+8*(j-1):])
	}
	p := leafPage{data: data, count: count, frame: f, first: first, stride: stride,
		zAt: first + f.zw - 8, idAt: first + f.zw + f.iw - 8, drop: zDrop(keyLen),
		zMask: ^uint64(0) >> (64 - 8*f.zw), idMask: ^uint64(0) >> (64 - 8*f.iw), shift: f.idShift()}
	for j, id := range f.ids {
		p.adj[j] = id - uint64(j)<<p.shift
	}
	return p, nil
}

// key decodes entry i's key: the frame's z plus the entry's z delta,
// and the base the id field selects plus the offset below the
// selector. A field of w bytes is read as the low w bytes of the 8 that
// end with it, which the image always holds: the header before the
// first entry is longer than 8 bytes.
func (p *leafPage) key(i int) Key {
	o := i * p.stride
	id := binary.BigEndian.Uint64(p.data[p.idAt+o:]) & p.idMask
	return Key{
		Hi: (p.frame.z + binary.BigEndian.Uint64(p.data[p.zAt+o:])&p.zMask) << p.drop,
		Lo: p.adj[id>>p.shift&(maxIDBases-1)] + id,
	}
}

// search returns the index of the first key >= k in the leaf.
func (p *leafPage) search(k Key) int {
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

// internalNode is the decoded form of an internal page:
// len(children) == len(seps) + 1, and subtree children[i] holds the
// keys k with seps[i-1] <= enc(k) < seps[i] (bounds omitted at the
// ends).
type internalNode struct {
	children []disk.PageID
	seps     [][]byte
}

// decodeLeaf returns a leaf's entries: the decoded form of a leaf page
// is the slice of its keys in order.
func decodeLeaf(data []byte, keyLen int) ([]Entry, error) {
	p, err := viewLeaf(data, keyLen)
	if err != nil {
		return nil, err
	}
	es := make([]Entry, p.count)
	for i := range es {
		es[i].Key = p.key(i)
	}
	return es, nil
}

// leafFrame is a leaf's frame of reference: the z its keys are stored
// against (as the stored z bytes, right-justified), the id bases, the
// byte widths of the z and id fields, and the selector bits of an id
// field. Bases past the first 2^sel are zero.
type leafFrame struct {
	z      uint64
	ids    [maxIDBases]uint64
	zw, iw int
	sel    int
}

// headerLen is the length of the header of a leaf in frame f.
func (f leafFrame) headerLen(keyLen int) int { return leafHeaderLen(keyLen) + 8*(1<<f.sel-1) }

// idShift is the number of offset bits below an id field's selector.
func (f leafFrame) idShift() uint { return uint(8*f.iw - f.sel) }

// frameOf returns the canonical frame of a leaf holding es, whose keys
// are keyLen bytes. The z base is the first key's z and zw the fewest
// bytes that hold the largest z delta, taken modulo the stored z bytes,
// so even keys out of order get a frame no wider than the key. The id
// part is the smallest of these images, counting the extra bases, and
// on a tie the one of fewer selector bits: the plain frame, whose one
// base is the smallest id and iw the bytes of the largest id less it;
// and for sel 1 and 2 and each narrower iw, the ids grouped by their
// bits above the offset, when they fall in at most 2^sel groups, each
// group's smallest id a base. Bases never make an image larger, so a
// run of entries fits wherever its plain frame does.
func frameOf(es []Entry, keyLen int) leafFrame {
	if len(es) == 0 {
		return leafFrame{}
	}
	drop := zDrop(keyLen)
	f := leafFrame{z: es[0].Key.Hi >> drop, ids: [maxIDBases]uint64{es[0].Key.Lo}}
	var dz, maxID uint64
	for _, e := range es {
		dz = max(dz, (e.Key.Hi>>drop-f.z)&(^uint64(0)>>drop))
		f.ids[0], maxID = min(f.ids[0], e.Key.Lo), max(maxID, e.Key.Lo)
	}
	f.zw, f.iw = bytesFor(dz), bytesFor(maxID-f.ids[0])
	// Grouping at a width works at every wider one, so the narrowest id
	// width that groups gives a selector width its smallest image: each
	// tries the widths from the narrowest up, to the first that groups
	// or the first whose image would not win. A pass that fails mostly
	// fails fast, and the one that groups is the only full pass.
	plain, best := f.iw, len(es)*f.iw
	for sel := maxSel; sel > 0; sel-- {
		for iw := 1; iw < plain; iw++ {
			size := 8*(1<<sel-1) + len(es)*iw
			if size > best || size == best && sel >= f.sel {
				break
			}
			if ids, ok := idBases(es, uint(8*iw-sel), 1<<sel); ok {
				f.ids, f.iw, f.sel, best = ids, iw, sel, size
				break
			}
		}
	}
	return f
}

// idBases groups the ids of es by their bits from shift up and returns
// each group's smallest id, ascending, when there are at most n groups.
// It stops at the first group over n.
func idBases(es []Entry, shift uint, n int) (ids [maxIDBases]uint64, ok bool) {
	var groups [maxIDBases]uint64
	k := 0
	for _, e := range es {
		g, j := e.Key.Lo>>shift, 0
		for j < k && groups[j] != g {
			j++
		}
		if j == k {
			if k == n {
				return ids, false
			}
			groups[k], ids[k] = g, e.Key.Lo
			k++
		}
		ids[j] = min(ids[j], e.Key.Lo)
	}
	// Groups are disjoint ranges of ids, so their smallest ids sort as
	// the groups do.
	slices.Sort(ids[:k])
	return ids, true
}

// bytesFor returns the fewest bytes that hold x.
func bytesFor(x uint64) int { return (bits.Len64(x) + 7) / 8 }

// leafBytes is the size of the image of a leaf of n entries in frame f.
func leafBytes(n int, f leafFrame, keyLen int) int {
	return f.headerLen(keyLen) + n*(f.zw+f.iw)
}

// encodeLeaf makes data the image of a leaf holding es in frame f. The
// page is zeroed first, so with f = frameOf(es) the image is canonical.
// An id selects the largest base at or below it.
func encodeLeaf(data []byte, es []Entry, f leafFrame, keyLen int) {
	clear(data)
	data[0] = byte(leafType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(es)))
	data[3], data[4] = byte(f.zw), byte(f.iw|f.sel<<4)
	drop, shift, bases := zDrop(keyLen), f.idShift(), 1<<f.sel
	Key{Hi: f.z << drop, Lo: f.ids[0]}.encode(data[leafBaseOff : leafBaseOff+keyLen])
	for j := 1; j < bases; j++ {
		binary.BigEndian.PutUint64(data[leafHeaderLen(keyLen)+8*(j-1):], f.ids[j])
	}
	for i, e := range es {
		off := f.headerLen(keyLen) + i*(f.zw+f.iw)
		j := 0
		for j+1 < bases && f.ids[j+1] != 0 && f.ids[j+1] <= e.Key.Lo {
			j++
		}
		putBeUint(data[off:off+f.zw], e.Key.Hi>>drop-f.z)
		putBeUint(data[off+f.zw:off+f.zw+f.iw], uint64(j)<<shift|(e.Key.Lo-f.ids[j]))
	}
}

// putBeUint writes the low len(b) bytes of x into b, big-endian.
func putBeUint(b []byte, x uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(x)
		x >>= 8
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
