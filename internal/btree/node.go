package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"probe/internal/disk"
)

// Page layouts. All integers little-endian unless they are keys or
// key deltas (which are big-endian so byte order matches key order).
//
// Leaf:     [type u8][count u16][zbits u8][ibits u8][sel u8][bbits u8]
//           [base key keyLen B]
//           (2^sel - 1) x [id base 8 B]
//           (count-1)/32 x [block base zbits bits]
//           count x [z gap bbits bits][id field ibits bits]
// Internal: [type u8][count u16]            (count = number of seps)
//           (count+1) x [child u32]
//           count x [separator keyLen B]
//
// keyLen is the tree's key length (key.go): 8 bytes of Lo after as
// many bytes of Hi as Config.KeyBits needs, the z bytes. A leaf stores
// its keys against a frame of reference in two levels. The base key
// holds the z value of the first key and the first id base. Entries
// fall into blocks of 32 by index (i >> 5); a block's base is the z of
// its first entry, the first block's the base key's, and each later one
// is stored once, as its distance from the base key's z in zbits bits.
// An entry holds its z as its gap from the previous key's z in bbits
// bits, the widest gap between any two consecutive keys of the leaf; a
// block's first entry holds 0 and takes its z from its block's base, so
// a key is its block's base plus the gaps of the block up to it. Its id
// field holds, in its top sel bits (0, 1 or 2), a selector among 2^sel
// id bases, and below them the id's distance from the base it selects.
// With no selector bits the one base is the smallest id; with them,
// each base is the first id of a group's range, the ids that share
// their bits above the distance. The first base is the base key's; the
// others follow the base key in ascending order, a slot not used being
// zero. Block bases, then entries at a stride of bbits+ibits bits, are
// packed most significant bit first from the first byte after the
// header. The frame is canonical (frameOf): the widths are the fewest
// bits that hold the largest distances, and a leaf takes id bases only
// when they make its image smaller, so an image is a function of its
// entries alone and one rewritten in place is byte-equal to a fresh
// one. A field is read from the 8 bytes that end with it, which hold
// 57 bits past any bit boundary; a frame with a field wider than that
// keeps all its widths in whole bytes, so every field ends on a byte
// (fieldBits). Entries stay fixed-stride within a page, so a search is
// a binary search of the block bases, then a running sum over one
// block, and a key decodes without allocating.
//
// An internal page holds its separators as whole keys of keyLen bytes
// (key.go: each a shortest separating prefix padded with zeros) at a
// fixed stride after its children, so a descent binary-searches them
// as keys. The fanout is fixed as if each separator also took the 2
// bytes of a length (Tree.fanout), which stay unused: a node is cut by
// its children, never by its bytes.
//
// Leaves carry no sibling links: copy-on-write could not maintain them
// (a neighbor's link would dangle at the old page version), so a
// cursor finds the next leaf through its descent path.
//
// Reads never decode a page. They search the image through the
// leafPage and internalPage views below, over the image the pool
// hands out (disk.Pool.View); a leaf view decodes only the block bases
// and the last key.
// A leaf's entries ([]Entry, decodeLeaf) and internalNode are the
// copy-on-write path's builder: a writer decodes the pages it is about
// to replace, edits the decoded form, and encodes the result into
// fresh pages. A leaf that overflows or underflows may replace its
// neighbours too: it is re-cut with them, into one leaf fewer, as many
// or one more, before a full one is cut alone (tree.go, recutLeaf).

type nodeType byte

const (
	leafType     nodeType = 1
	internalType nodeType = 2
)

const (
	leafBaseOff       = 1 + 2 + 4 // the base key follows type, count and frame
	internalHeaderLen = 1 + 2
	maxSel            = 2 // most selector bits of an id field
	maxIDBases        = 1 << maxSel
	blockShift        = 5 // an entry's block is its index >> blockShift
	blockLen          = 1 << blockShift
	maxCount          = math.MaxUint16 // the most entries or separators a header counts
	maxFieldBits      = 57             // the widest field read past any bit boundary
	// stackBases is how many block bases a view on the stack holds: a
	// 4 KiB leaf's, at 8 bits an entry or more.
	stackBases = 4096 * 8 / 8 / blockLen
)

// leafHeaderLen is the length of a leaf header for keys of keyLen
// bytes, before its extra id bases.
func leafHeaderLen(keyLen int) int { return leafBaseOff + keyLen }

// storedBases is the number of block bases a leaf of n entries stores:
// one for each block but the first, whose base is the base key's z.
func storedBases(n int) int { return max(n-1, 0) >> blockShift }

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
// fixed-stride within the page, so entry i's fields are found by
// arithmetic, and a key is its block's base plus the gaps of the block
// up to it. The view decodes the block bases, which it holds apart
// from the image in bases, whose capacity a view filled in place keeps
// for the next leaf, and the leaf's last key.
type leafPage struct {
	data          []byte // the whole image
	count         int
	frame         leafFrame
	stride, ibits int    // bits of an entry, and of its id field
	zAt           int    // entry 0's z field end, in bits, less 57
	drop          uint   // zDrop of the tree's key length, under 64
	zMask, idMask uint64 // the low bbits and ibits bits
	shift         uint   // id offset bits: ibits - sel
	last          Key    // the last entry's key, if any
	// bases[b] is block b's base as a Key.Hi: the frame's z plus the
	// block's distance from it.
	bases []uint64
	// adj[j] is base j less selector j in place, so that an id field
	// that selects base j decodes as adj[j] plus the field.
	adj [maxIDBases]uint64
}

// view makes p a view of the leaf image data, whose keys are keyLen
// bytes, after checking that its frame is within the key, its fields
// within the image and each block's first z gap 0.
func (p *leafPage) view(data []byte, keyLen int) error {
	p.data = nil // until the view is whole
	count, err := pageHeader(data, leafType, leafHeaderLen(keyLen), "a leaf")
	if err != nil {
		return err
	}
	f := leafFrame{zbits: int(data[3]), ibits: int(data[4]), sel: int(data[5]), bbits: int(data[6])}
	if f.zbits > 8*(keyLen-8) || f.ibits > 64 {
		return fmt.Errorf("btree: leaf frame of %d+%d bits is wider than a %d-byte key", f.zbits, f.ibits, keyLen)
	}
	if f.bbits > f.zbits {
		return fmt.Errorf("btree: leaf frame's %d-bit z gaps are wider than its %d-bit block bases", f.bbits, f.zbits)
	}
	if f.sel > maxSel || f.sel > f.ibits {
		return fmt.Errorf("btree: leaf frame selects among %d id bases in %d-bit id fields", 1<<f.sel, f.ibits)
	}
	if zb, bb, ib := fieldBits(f.zbits, f.bbits, f.ibits); zb != f.zbits || bb != f.bbits || ib != f.ibits {
		return fmt.Errorf("btree: leaf frame of %d/%d+%d bits has a field over %d bits off a byte boundary", f.zbits, f.bbits, f.ibits, maxFieldBits)
	}
	first, nb := f.headerLen(keyLen), storedBases(count)
	if leafBytes(count, f, keyLen) > len(data) {
		return fmt.Errorf("btree: leaf overflows page (%d entries, %d block bases)", count, nb)
	}
	base := decodeKey(data[leafBaseOff : leafBaseOff+keyLen])
	f.z, f.ids[0] = base.Hi>>zDrop(keyLen), base.Lo
	for j := 1; j < 1<<f.sel; j++ {
		f.ids[j] = binary.BigEndian.Uint64(data[leafHeaderLen(keyLen)+8*(j-1):])
	}
	// Field by field, so that the view keeps its bases' buffer and
	// escape analysis sees no buffer of a caller's stored in p.
	p.count, p.frame, p.drop = count, f, zDrop(keyLen)
	p.stride, p.ibits, p.shift = f.bbits+f.ibits, f.ibits, f.idShift()
	p.zAt = 8*first + nb*f.zbits + f.bbits - maxFieldBits
	p.zMask, p.idMask = ^uint64(0)>>(64-f.bbits), ^uint64(0)>>(64-f.ibits)
	for j, id := range f.ids {
		p.adj[j] = id - uint64(j)<<p.shift
	}
	n := (count + blockLen - 1) >> blockShift
	if cap(p.bases) < n {
		p.bases = make([]uint64, n)
	}
	p.bases = p.bases[:n]
	// A block's base is its first key's z, so that key's z gap is 0:
	// search compares the bases as the blocks' first keys.
	baseMask, e := ^uint64(0)>>(64-f.zbits), uint(8*first-maxFieldBits)
	for b := range p.bases {
		if b > 0 {
			e += uint(f.zbits)
			p.bases[b] = base.Hi + binary.BigEndian.Uint64(data[e>>3:])>>(^e&7)&baseMask<<p.drop
		} else {
			p.bases[b] = base.Hi
		}
		if z := p.zAt + b*blockLen*p.stride; binary.BigEndian.Uint64(data[z>>3:])>>(^z&7)&p.zMask != 0 {
			return fmt.Errorf("btree: leaf block %d's first z gap is not 0", b)
		}
	}
	p.data, p.last = data, Key{}
	if n > 0 {
		i, hi := (n-1)<<blockShift, p.bases[n-1]
		for i+1 < count {
			i++
			hi += p.gap(i)
		}
		p.last = Key{Hi: hi, Lo: p.id(i)}
	}
	return nil
}

// gap returns entry i's z gap, as a Key.Hi: what its key's Hi adds to
// the previous entry's, or at a block's first entry to its block's base
// (gapFrom). A field that ends at bit e is the low bits of the 8 bytes
// that end with e's byte, shifted right past that byte's bits after e:
// with a = e-57 (zAt + i*stride for entry i's z field), the 8 bytes at
// a>>3 shifted by 7-a&7. The image always holds them: the header before
// the first entry is longer than 8 bytes. The mask on drop changes no
// value; it spares the shift its check.
func (p *leafPage) gap(i int) uint64 {
	z := p.zAt + i*p.stride
	return binary.BigEndian.Uint64(p.data[z>>3:]) >> (^z & 7) & p.zMask << (p.drop & 63)
}

// id decodes entry i's id: the base its field selects plus the offset
// below the selector. The mask on the selector changes no value; it
// spares the index its check.
func (p *leafPage) id(i int) uint64 {
	e := p.zAt + i*p.stride + p.ibits
	f := binary.BigEndian.Uint64(p.data[e>>3:]) >> (^e & 7) & p.idMask
	return p.adj[f>>p.shift&(maxIDBases-1)] + f
}

// gapFrom returns the Hi that entry i's z gap is from, prev being
// entry i-1's: at a block's first entry, its block's base.
func (p *leafPage) gapFrom(i int, prev uint64) uint64 {
	if i&(blockLen-1) == 0 {
		return p.bases[i>>blockShift]
	}
	return prev
}

// search returns the index and key of the first key >= k in the leaf
// (count and the zero key if none is).
func (p *leafPage) search(k Key) (int, Key) {
	if p.count == 0 {
		return 0, Key{}
	}
	return p.seek(k, 0, p.bases[0])
}

// seek returns the index and key of the first key >= k at or after
// entry i, whose Hi is hi and whose key is not above k. It first finds
// the first later block whose first key is >= k, comparing block bases
// alone unless a base equals k's z, then sums the gaps of the block
// before it from entry i, or from that block's first entry if it is
// later: the block holds the answer or ends just before it. An id is
// read only where the z equals k's.
func (p *leafPage) seek(k Key, i int, hi uint64) (int, Key) {
	b0 := i>>blockShift + 1
	b := b0 + sort.Search(len(p.bases)-b0, func(j int) bool {
		h := p.bases[b0+j]
		return h > k.Hi || h == k.Hi && p.id((b0+j)<<blockShift) >= k.Lo
	})
	if b > b0 {
		i, hi = (b-1)<<blockShift, p.bases[b-1]
	}
	for hi < k.Hi || hi == k.Hi && p.id(i) < k.Lo {
		if i++; i == p.count {
			return i, Key{}
		}
		hi = p.gapFrom(i, hi) + p.gap(i)
	}
	return i, Key{Hi: hi, Lo: p.id(i)}
}

// internalPage is a read-only view of an internal page image. The
// children and the separators sit in two fixed-stride arrays, so both
// are found by arithmetic.
type internalPage struct {
	data   []byte
	count  int // separators; the page has count+1 children
	keyLen int
}

// viewInternal views data as an internal page of keyLen-byte
// separators, after checking that both its arrays lie within it.
func viewInternal(data []byte, keyLen int) (internalPage, error) {
	count, err := pageHeader(data, internalType, internalHeaderLen, "internal")
	if err != nil {
		return internalPage{}, err
	}
	if internalBytes(count, keyLen) > len(data) {
		return internalPage{}, errInternalOverflow
	}
	return internalPage{data: data, count: count, keyLen: keyLen}, nil
}

// internalBytes is the size of the image of an internal node of count
// separators of keyLen bytes.
func internalBytes(count, keyLen int) int { return internalHeaderLen + 4*(count+1) + count*keyLen }

func (p internalPage) children() int { return p.count + 1 }

func (p internalPage) child(i int) disk.PageID {
	return disk.PageID(binary.LittleEndian.Uint32(p.data[internalHeaderLen+4*i:]))
}

// sep returns separator i.
func (p internalPage) sep(i int) Key {
	off := internalHeaderLen + 4*(p.count+1) + i*p.keyLen
	return decodeKey(p.data[off : off+p.keyLen])
}

// childIndex returns the index of the child subtree that may contain
// k: the number of separators <= k, which increase. k must be at the
// resolution of the page's keys (Key.ceil).
func (p internalPage) childIndex(k Key) int {
	return sort.Search(p.count, func(i int) bool { return k.Less(p.sep(i)) })
}

// internalNode is the decoded form of an internal page:
// len(children) == len(seps) + 1, and subtree children[i] holds the
// keys k with seps[i-1] <= k < seps[i] (bounds omitted at the ends).
type internalNode struct {
	children []disk.PageID
	seps     []Key
}

// decodeLeaf appends a leaf's entries to es: the decoded form of a leaf
// page is the slice of its keys in order.
func decodeLeaf(es []Entry, data []byte, keyLen int) ([]Entry, error) {
	var bases [stackBases]uint64
	p := leafPage{bases: bases[:0]}
	if err := p.view(data, keyLen); err != nil {
		return nil, err
	}
	es = slices.Grow(es, p.count)
	var k Key
	for i := 0; i < p.count; i++ {
		k = Key{Hi: p.gapFrom(i, k.Hi) + p.gap(i), Lo: p.id(i)}
		es = append(es, Entry{Key: k})
	}
	return es, nil
}

// leafFrame is a leaf's frame of reference: the z its keys are stored
// against (as the stored z bits, right-justified), the id bases, the
// bit widths of the block bases, of the z gaps between keys and of the
// id fields, and the selector bits of an id field. Bases past the
// first 2^sel are zero.
type leafFrame struct {
	z                   uint64
	ids                 [maxIDBases]uint64
	zbits, bbits, ibits int
	sel                 int
}

// headerLen is the length of the header of a leaf in frame f.
func (f leafFrame) headerLen(keyLen int) int { return leafHeaderLen(keyLen) + 8*(1<<f.sel-1) }

// idShift is the number of offset bits below an id field's selector.
func (f leafFrame) idShift() uint { return uint(f.ibits - f.sel) }

// fieldBits returns the widths of a frame whose block bases, z gaps
// and id deltas take zb, bb and ib bits: those, unless one is wider
// than a read past any bit boundary holds, when all round up to whole
// bytes.
func fieldBits(zb, bb, ib int) (int, int, int) {
	if max(zb, bb, ib) > maxFieldBits {
		return (zb + 7) &^ 7, (bb + 7) &^ 7, (ib + 7) &^ 7
	}
	return zb, bb, ib
}

// leafBytes is the size of the image of a leaf of n entries in frame f.
func leafBytes(n int, f leafFrame, keyLen int) int {
	return f.headerLen(keyLen) + (storedBases(n)*f.zbits+n*(f.bbits+f.ibits)+7)/8
}

// frameScan takes a run of keys as it grows, from either end, and
// keeps what its canonical frame depends on: the largest z delta from
// the key it started at, the widest z gap between consecutive keys, the
// ids' range, and for each selector width sel the narrowest shift at
// which the ids fall in at most 2^sel groups (id >> shift). Every gap
// counts, those a block's first entry does not store too, so a run's
// widths bound those of any run inside it, wherever its blocks start.
// Grouping at a shift works at every wider one, and a key only falls in
// a group or adds one, so when a key makes one group too many the shift
// widens a bit at a time, each step merging the groups that now share
// their bits (g >> 1).
type frameScan struct {
	keyLen int
	drop   uint // zDrop(keyLen)
	n      int
	back   bool   // the run grows toward smaller keys
	z0     uint64 // the first key's stored z
	last   uint64 // the stored z of the key added last
	zMask  uint64 // the stored z bits
	dz, dg uint64 // the largest z delta and z gap
	lo, hi uint64
	groups [maxSel]idGroups // by sel-1
}

// idGroups is one selector width's grouping: its shift and the
// distinct values of id >> shift.
type idGroups struct {
	shift uint
	k     int
	g     [maxIDBases + 1]uint64
}

func newFrameScan(keyLen int, k Key, back bool) frameScan {
	drop := zDrop(keyLen)
	s := frameScan{keyLen: keyLen, drop: drop, n: 1, back: back, z0: k.Hi >> drop, last: k.Hi >> drop, zMask: ^uint64(0) >> drop, lo: k.Lo, hi: k.Lo}
	for j := range s.groups {
		s.groups[j].k, s.groups[j].g[0] = 1, k.Lo
	}
	return s
}

// add takes the next keys of the run, in the order it grows: after its
// last key, or before its first when the scan runs back. A z delta or
// gap is taken modulo the stored z bits, so even keys out of order get
// a frame no wider than the key.
func (s *frameScan) add(es []Entry) {
	n, last, dz, dg, lo, hi := s.n, s.last, s.dz, s.dg, s.lo, s.hi
	for _, e := range es {
		z := e.Key.Hi >> s.drop
		d, g := z-s.z0, z-last
		if s.back {
			d, g = -d, -g
		}
		n, last, dz, dg, lo, hi = n+1, z, max(dz, d&s.zMask), max(dg, g&s.zMask), min(lo, e.Key.Lo), max(hi, e.Key.Lo)
		// More selector bits group at a shift no wider, so an id in a group
		// of theirs is in one of each narrower selector's.
		for j := maxSel - 1; j >= 0; j-- {
			gs := &s.groups[j]
			if !gs.put(e.Key.Lo >> gs.shift) {
				break
			}
			gs.widen(2 << j)
		}
	}
	s.n, s.last, s.dz, s.dg, s.lo, s.hi = n, last, dz, dg, lo, hi
}

// widen widens the shift a bit at a time until there are at most n
// groups. A merge rewrites the groups in place: group j goes to a slot
// at or before j.
func (gs *idGroups) widen(n int) {
	for gs.k > n {
		k := gs.k
		gs.shift, gs.k = gs.shift+1, 0
		for j := range k {
			gs.put(gs.g[j] >> 1)
		}
	}
}

// put makes g a group unless it is one, and reports whether it did.
func (gs *idGroups) put(g uint64) bool {
	// Groups are distinct, so at most one matches; which one is data, so
	// the loop takes no branch on it.
	in := false
	for m := range gs.k {
		in = in != (gs.g[m] == g)
	}
	if !in {
		gs.g[gs.k], gs.k = g, gs.k+1
	}
	return !in
}

// shape returns the canonical frame of the run so far, but its z and id
// bases, and the size of its image: the smallest of the plain
// frame, whose one base is the smallest id, and for each selector width
// its narrowest grouping, a base for each group; on a tie the one of
// fewer selector bits. Bases never make an image larger, so a
// run fits wherever its plain frame does, and each width of a shorter
// run is no wider, so neither is its image.
func (s *frameScan) shape() (f leafFrame, size int) {
	zb, bb := bits.Len64(s.dz), bits.Len64(s.dg)
	f.zbits, f.bbits, f.ibits = fieldBits(zb, bb, bits.Len64(s.hi-s.lo))
	size = leafBytes(s.n, f, s.keyLen)
	for j := range s.groups {
		c := leafFrame{sel: j + 1}
		c.zbits, c.bbits, c.ibits = fieldBits(zb, bb, int(s.groups[j].shift)+j+1)
		if b := leafBytes(s.n, c, s.keyLen); b < size {
			f, size = c, b
		}
	}
	return f, size
}

// frameOf returns the canonical frame of a leaf holding es, whose keys
// are keyLen bytes: the z base is the first key's z, and the rest is
// the shape of es scanned from its front (frameScan.shape).
func frameOf(es []Entry, keyLen int) leafFrame {
	if len(es) == 0 {
		return leafFrame{}
	}
	s := newFrameScan(keyLen, es[0].Key, false)
	s.add(es[1:])
	f, _ := s.shape()
	f.z, f.ids[0] = s.z0, s.lo
	if f.sel > 0 {
		// A group's base is the first id of its range, its bits above
		// the shift with zeros below. The ranges are disjoint, so the
		// bases sort as the groups do.
		gs := &s.groups[f.sel-1]
		for j, g := range gs.g[:gs.k] {
			f.ids[j] = g << gs.shift
		}
		slices.Sort(f.ids[:gs.k])
	}
	return f
}

// encodeLeaf makes data the image of a leaf holding es in frame f. The
// page is zeroed first, so with f = frameOf(es) the image is canonical.
// A block's base is the z of its first entry, whose gap is 0, and an id
// selects the largest base at or below it.
func encodeLeaf(data []byte, es []Entry, f leafFrame, keyLen int) {
	clear(data)
	data[0] = byte(leafType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(es)))
	data[3], data[4], data[5], data[6] = byte(f.zbits), byte(f.ibits), byte(f.sel), byte(f.bbits)
	drop, shift, bases := zDrop(keyLen), f.idShift(), 1<<f.sel
	Key{Hi: f.z << drop, Lo: f.ids[0]}.encode(data[leafBaseOff : leafBaseOff+keyLen])
	for j := 1; j < bases; j++ {
		binary.BigEndian.PutUint64(data[leafHeaderLen(keyLen)+8*(j-1):], f.ids[j])
	}
	bw := bitWriter{data: data, off: f.headerLen(keyLen)}
	for i := blockLen; i < len(es); i += blockLen {
		bw.put(f.zbits, es[i].Key.Hi>>drop-f.z)
	}
	for i, e := range es {
		j := 0
		for j+1 < bases && f.ids[j+1] != 0 && f.ids[j+1] <= e.Key.Lo {
			j++
		}
		gap := uint64(0)
		if i&(blockLen-1) != 0 {
			gap = (e.Key.Hi - es[i-1].Key.Hi) >> drop
		}
		bw.put(f.bbits, gap)
		bw.put(f.ibits, uint64(j)<<shift|(e.Key.Lo-f.ids[j]))
	}
	bw.flush()
}

// bitWriter packs fields into data from byte off on, most significant
// bit first. acc ends with the n < 32 bits not yet written.
type bitWriter struct {
	data []byte
	off  int
	acc  uint64
	n    uint
}

// put appends the low w bits of x, 32 at most at a time, and writes 4
// bytes each time it holds them.
func (b *bitWriter) put(w int, x uint64) {
	for w > 0 {
		n := min(w, 32)
		w -= n
		b.acc, b.n = b.acc<<uint(n)|x>>uint(w)&(1<<uint(n)-1), b.n+uint(n)
		if b.n >= 32 {
			b.n -= 32
			binary.BigEndian.PutUint32(b.data[b.off:], uint32(b.acc>>b.n))
			b.off += 4
		}
	}
}

// flush writes the bits left, the rest of their last byte zero.
func (b *bitWriter) flush() {
	for v, i := b.acc<<(64-b.n), 0; i < int(b.n+7)/8; i++ {
		b.data[b.off+i] = byte(v >> (56 - 8*i))
	}
}

// decodeInternal decodes the internal page p views.
func decodeInternal(p internalPage) *internalNode {
	n := &internalNode{children: make([]disk.PageID, p.children()), seps: make([]Key, p.count)}
	for i := range n.children {
		n.children[i] = p.child(i)
	}
	for i := range n.seps {
		n.seps[i] = p.sep(i)
	}
	return n
}

// encode makes data the image of n, whose separators are keyLen bytes.
func (n *internalNode) encode(data []byte, keyLen int) {
	clear(data)
	data[0] = byte(internalType)
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(n.seps)))
	off := internalHeaderLen
	for _, c := range n.children {
		binary.LittleEndian.PutUint32(data[off:off+4], uint32(c))
		off += 4
	}
	for _, s := range n.seps {
		s.encode(data[off : off+keyLen])
		off += keyLen
	}
}
