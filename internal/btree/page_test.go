package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"probe/internal/disk"
	"probe/internal/obs"
)

// The read path searches page images through the leafPage and
// internalPage views, and the write path's decodeLeaf/decodeInternal
// copy nodes out through the same views. The tests below hold both
// against refDecodeLeaf/refDecodeInternal, byte-at-a-time decoders
// that share no code with the views, and hold the views' searches
// against the decoded nodes' own.

func refHeader(data []byte, want nodeType, headerLen int, kind string) (int, error) {
	if len(data) < headerLen {
		return 0, fmt.Errorf("btree: page of %d bytes is shorter than a node header", len(data))
	}
	if nodeType(data[0]) != want {
		return 0, fmt.Errorf("btree: page is not %s (type %d)", kind, data[0])
	}
	return int(binary.LittleEndian.Uint16(data[1:3])), nil
}

// refDecodeKey reads a key of len(b) bytes one byte at a time: the
// leading len(b)-8 bytes are the top bytes of Hi, the rest is Lo.
func refDecodeKey(b []byte) Key {
	var k Key
	for i, x := range b[:len(b)-8] {
		k.Hi |= uint64(x) << (56 - 8*uint(i))
	}
	for _, x := range b[len(b)-8:] {
		k.Lo = k.Lo<<8 | uint64(x)
	}
	return k
}

// refUint reads b as a big-endian integer one byte at a time.
func refUint(b []byte) uint64 {
	var x uint64
	for _, c := range b {
		x = x<<8 | uint64(c)
	}
	return x
}

// refDecodeLeaf reads a framed leaf one byte at a time: the z width at
// byte 3, the id width and selector bits in the low and high nibble of
// byte 4, the base key after them read as any key is, then 2^sel - 1
// more id bases. Per entry it reads a z delta counted in units of the
// lowest stored bit of Hi, added to the base key's z, and an id field
// whose top sel bits pick the base (the base key's id first) that the
// bits below them are added to.
func refDecodeLeaf(data []byte, keyLen int) ([]Entry, error) {
	count, err := refHeader(data, leafType, 5+keyLen, "a leaf")
	if err != nil {
		return nil, err
	}
	zw, iw, sel := int(data[3]), int(data[4]%16), int(data[4]/16)
	if zw > keyLen-8 || iw > 8 {
		return nil, fmt.Errorf("btree: leaf frame of %d+%d bytes is wider than a %d-byte key", zw, iw, keyLen)
	}
	if sel > 2 || sel > 0 && iw == 0 {
		return nil, fmt.Errorf("btree: leaf frame selects among %d id bases in %d-byte id fields", 1<<sel, iw)
	}
	nBases := 1 << sel
	off := 5 + keyLen + 8*(nBases-1)
	if off+count*(zw+iw) > len(data) {
		return nil, fmt.Errorf("btree: leaf overflows page (%d entries)", count)
	}
	base := refDecodeKey(data[5 : 5+keyLen])
	bases := []uint64{base.Lo}
	for j := 1; j < nBases; j++ {
		bases = append(bases, refUint(data[5+keyLen+8*(j-1):5+keyLen+8*j]))
	}
	unit := uint64(1) << (8 * (16 - keyLen))
	es := make([]Entry, count)
	for i := range es {
		field := data[off+zw : off+zw+iw]
		// The selector is the field's top sel bits; the offset is the rest.
		selector, offset := 0, uint64(0)
		for b := 0; b < 8*iw; b++ {
			bit := field[b/8] >> (7 - b%8) & 1
			if b < sel {
				selector = selector<<1 | int(bit)
			} else {
				offset = offset<<1 | uint64(bit)
			}
		}
		es[i].Key = Key{Hi: base.Hi + unit*refUint(data[off:off+zw]), Lo: bases[selector] + offset}
		off += zw + iw
	}
	return es, nil
}

func refDecodeInternal(data []byte) (*internalNode, error) {
	count, err := refHeader(data, internalType, internalHeaderLen, "internal")
	if err != nil {
		return nil, err
	}
	n := &internalNode{children: make([]disk.PageID, count+1), seps: make([][]byte, count)}
	off := internalHeaderLen
	if off+4*(count+1) > len(data) {
		return nil, fmt.Errorf("btree: internal node overflows page")
	}
	for i := 0; i <= count; i++ {
		n.children[i] = disk.PageID(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
	}
	for i := 0; i < count; i++ {
		if off+2 > len(data) {
			return nil, fmt.Errorf("btree: internal node overflows page")
		}
		l := int(binary.LittleEndian.Uint16(data[off : off+2]))
		off += 2
		if off+l > len(data) {
			return nil, fmt.Errorf("btree: internal node overflows page")
		}
		s := make([]byte, l)
		copy(s, data[off:off+l])
		n.seps[i] = s
		off += l
	}
	return n, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// linearChildIndex is childIndex by definition: the number of leading
// separators <= enc. It is the oracle for images whose separators are
// not sorted, where a binary search has no defined answer.
func linearChildIndex(seps [][]byte, enc []byte) int {
	for i, s := range seps {
		if bytes.Compare(s, enc) > 0 {
			return i
		}
	}
	return len(seps)
}

// checkLeafImage compares decodeLeaf and every leaf view accessor with
// the reference decoder on one image, valid or not, and reports
// whether it decoded.
func checkLeafImage(t *testing.T, data []byte, keyLen int, probes []Key) bool {
	t.Helper()
	n, derr := refDecodeLeaf(data, keyLen)
	p, verr := viewLeaf(data, keyLen)
	if errText(derr) != errText(verr) {
		t.Fatalf("leaf errors differ: reference %q, view %q", errText(derr), errText(verr))
	}
	if got, err := decodeLeaf(data, keyLen); errText(err) != errText(derr) || !reflect.DeepEqual(got, n) {
		t.Fatalf("decodeLeaf = %+v, %v; reference %+v, %v", got, err, n, derr)
	}
	if derr != nil {
		return false
	}
	if p.count != len(n) {
		t.Fatalf("leaf count %d, decoded %d", p.count, len(n))
	}
	for i, e := range n {
		k := e.Key
		if p.key(i) != k {
			t.Fatalf("leaf key %d: view %v, decoded %v", i, p.key(i), k)
		}
		probes = append(probes, k, Key{Hi: k.Hi, Lo: k.Lo + 1}, Key{Hi: k.Hi, Lo: k.Lo - 1}, Key{Hi: k.Hi | 1, Lo: k.Lo})
	}
	for _, k := range probes {
		if got, want := p.search(k), searchLeaf(n, k); got != want {
			t.Fatalf("leaf search(%v) = %d, decoded %d", k, got, want)
		}
	}
	return true
}

// checkInternalImage compares decodeInternal and every internal view
// accessor with the reference decoder on one image, valid or not, and
// reports whether it decoded. On an image whose separators run past
// the page, a scan that crosses them all must fail as decoding does,
// and no scan may panic.
func checkInternalImage(t *testing.T, data []byte, probes [][]byte) bool {
	t.Helper()
	n, derr := refDecodeInternal(data)
	if got, err := decodeInternal(data); errText(err) != errText(derr) || !reflect.DeepEqual(got, n) {
		t.Fatalf("decodeInternal = %+v, %v; reference %+v, %v", got, err, n, derr)
	}
	p, verr := viewInternal(data)
	beyond := bytes.Repeat([]byte{0xff}, encodedKeyLen+1)
	if verr == nil {
		for _, enc := range probes {
			p.childIndex(enc)
		}
		_, verr = p.childIndex(beyond)
	}
	if errText(derr) != errText(verr) {
		t.Fatalf("internal errors differ: reference %q, view %q", errText(derr), errText(verr))
	}
	if derr != nil {
		return false
	}
	if p.children() != len(n.children) {
		t.Fatalf("internal has %d children, decoded %d", p.children(), len(n.children))
	}
	for i, c := range n.children {
		if p.child(i) != c {
			t.Fatalf("child %d: view %d, decoded %d", i, p.child(i), c)
		}
	}
	off := p.firstSep()
	for i, s := range n.seps {
		sep, next, err := p.sepAt(off)
		if err != nil || !bytes.Equal(sep, s) {
			t.Fatalf("separator %d: view %x (%v), decoded %x", i, sep, err, s)
		}
		if cap(sep) != len(sep) {
			t.Fatalf("separator %d has capacity %d past its %d bytes", i, cap(sep), len(sep))
		}
		off = next
		probes = append(probes, s, append(append([]byte(nil), s...), 0), s[:len(s)/2])
	}
	sorted := sort.SliceIsSorted(n.seps, func(i, j int) bool { return bytes.Compare(n.seps[i], n.seps[j]) < 0 })
	for _, enc := range append(probes, beyond) {
		got, err := p.childIndex(enc)
		if err != nil {
			t.Fatalf("childIndex(%x) on a decodable page: %v", enc, err)
		}
		if want := linearChildIndex(n.seps, enc); got != want {
			t.Fatalf("childIndex(%x) = %d, want %d", enc, got, want)
		}
		if want := n.childIndex(enc); sorted && got != want {
			t.Fatalf("childIndex(%x) = %d, decoded node says %d", enc, got, want)
		}
	}
	return true
}

// framedLeafImage returns the image of a leaf of up to n entries (n
// less duplicates), whose keys span zw bytes of z and iw of id: with
// two entries or more its canonical frame is that wide.
func framedLeafImage(rng *rand.Rand, pageSize, keyLen, zw, iw, n int) []byte {
	drop := zDrop(keyLen)
	zSpan, idSpan := uint64(1)<<(8*zw)-1, uint64(1)<<(8*iw)-1
	z0, id0 := rng.Uint64()>>drop&^zSpan, rng.Uint64()&^idSpan
	var es []Entry
	for i := 0; i < n; i++ {
		// Few distinct z values, so that Lo decides many comparisons.
		k := Key{Hi: (z0 + uint64(rng.Intn(4))*(zSpan/3)) << drop, Lo: id0 + rng.Uint64()&idSpan}
		switch i {
		case 0:
			k = Key{Hi: z0 << drop, Lo: id0}
		case 1:
			k = Key{Hi: (z0 + zSpan) << drop, Lo: id0 + idSpan}
		}
		es = append(es, Entry{Key: k})
	}
	slices.SortFunc(es, func(a, b Entry) int { return a.Key.Compare(b.Key) })
	es = slices.CompactFunc(es, func(a, b Entry) bool { return a.Key == b.Key })
	data := make([]byte, pageSize)
	encodeLeaf(data, es, frameOf(es, keyLen), keyLen)
	return data
}

// clusteredEntries returns up to n entries (n less duplicates) in key
// order, whose z values span zw bytes and whose ids fall in 1 to 5
// clusters 2^8 to 2^48 apart, each up to 2^16 wide: the id ranges a
// frame may give several bases.
func clusteredEntries(rng *rand.Rand, keyLen, zw, n int) []Entry {
	drop := zDrop(keyLen)
	zSpan := uint64(1)<<(8*zw) - 1
	z0 := rng.Uint64() >> drop &^ zSpan
	starts := []uint64{rng.Uint64() >> 2}
	for c := rng.Intn(5); c > 0; c-- {
		starts = append(starts, starts[len(starts)-1]+uint64(1)<<(8+rng.Intn(41)))
	}
	spread := uint64(1) << rng.Intn(17)
	var es []Entry
	for i := 0; i < n; i++ {
		id := starts[rng.Intn(len(starts))] + rng.Uint64()%spread
		es = append(es, Entry{Key: Key{Hi: (z0 + rng.Uint64()&zSpan) << drop, Lo: id}})
	}
	slices.SortFunc(es, func(a, b Entry) int { return a.Key.Compare(b.Key) })
	return slices.CompactFunc(es, func(a, b Entry) bool { return a.Key == b.Key })
}

// randomLeafImage returns a leaf of random widths holding up to as
// many entries as fit at the widest frame, half the time with ids in
// clusters.
func randomLeafImage(rng *rand.Rand, pageSize, keyLen int) []byte {
	n := rng.Intn((pageSize-leafHeaderLen(keyLen))/keyLen + 1)
	if rng.Intn(2) == 0 {
		return framedLeafImage(rng, pageSize, keyLen, rng.Intn(keyLen-7), rng.Intn(9), n)
	}
	es := clusteredEntries(rng, keyLen, rng.Intn(keyLen-7), n)
	data := make([]byte, pageSize)
	encodeLeaf(data, es, frameOf(es, keyLen), keyLen)
	return data
}

func randomInternalImage(rng *rand.Rand, pageSize int) []byte {
	fanout := (pageSize - internalHeaderLen + 2 + encodedKeyLen) / (4 + 2 + encodedKeyLen)
	set := map[string]bool{}
	for i := rng.Intn(fanout); i > 0; i-- {
		s := make([]byte, 1+rng.Intn(encodedKeyLen))
		for j := range s {
			s[j] = byte(rng.Intn(3)) // a small alphabet makes prefixes of each other
		}
		set[string(s)] = true
	}
	n := &internalNode{children: []disk.PageID{disk.PageID(rng.Uint32())}}
	for s := range set {
		n.seps = append(n.seps, []byte(s))
		n.children = append(n.children, disk.PageID(rng.Uint32()))
	}
	sort.Slice(n.seps, func(i, j int) bool { return bytes.Compare(n.seps[i], n.seps[j]) < 0 })
	data := make([]byte, pageSize)
	n.encode(data)
	return data
}

func TestPageViewsMatchDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var sels [maxSel + 1]int
	for round := 0; round < 300; round++ {
		pageSize := []int{128, 512, 4096}[rng.Intn(3)]
		keyLen := 9 + rng.Intn(8)
		probes := make([]Key, 32)
		for i := range probes {
			probes[i] = Key{Hi: uint64(rng.Intn(5)) << 62, Lo: rng.Uint64()}
		}
		leaf := randomLeafImage(rng, pageSize, keyLen)
		if !checkLeafImage(t, leaf, keyLen, probes) {
			t.Fatal("a well-formed leaf image did not decode")
		}
		sels[leaf[4]>>4]++
		encs := make([][]byte, 32)
		for i := range encs {
			encs[i] = make([]byte, rng.Intn(encodedKeyLen+1))
			for j := range encs[i] {
				encs[i][j] = byte(rng.Intn(3))
			}
		}
		if !checkInternalImage(t, randomInternalImage(rng, pageSize), encs) {
			t.Fatal("a well-formed internal image did not decode")
		}
	}
	for sel, n := range sels {
		if n == 0 {
			t.Errorf("no leaf image had %d selector bits: %v", sel, sels)
		}
	}
}

// TestPageViewsRejectCorruptImages plants each kind of damage the
// format can show and checks that view and decode refuse it with the
// same error, without reading outside the image.
func TestPageViewsRejectCorruptImages(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	leaf := framedLeafImage(rng, 512, encodedKeyLen, 8, 8, 12)
	// About 60 entries of 2 bytes: more than fit the page at the widest
	// frame, 45.
	narrow := framedLeafImage(rng, 512, 11, 1, 1, 60)
	internal := randomInternalImage(rng, 512)
	for binary.LittleEndian.Uint16(internal[1:3]) < 2 {
		internal = randomInternalImage(rng, 512)
	}
	damage := func(img []byte, f func([]byte)) []byte {
		c := append([]byte(nil), img...)
		f(c)
		return c
	}
	// Wrong type byte, either way round and unknown.
	for _, typ := range []byte{0, byte(internalType), 7} {
		if checkLeafImage(t, damage(leaf, func(b []byte) { b[0] = typ }), encodedKeyLen, nil) {
			t.Errorf("leaf with type byte %d decoded", typ)
		}
	}
	for _, typ := range []byte{0, byte(leafType), 7} {
		if checkInternalImage(t, damage(internal, func(b []byte) { b[0] = typ }), nil) {
			t.Errorf("internal page with type byte %d decoded", typ)
		}
	}
	// A frame wider than the key: an id width over 8, a z width over
	// the key's z bytes (8, and 3 on the 11-byte key).
	for _, w := range [][2]byte{{8, 9}, {9, 8}, {0xff, 0}} {
		if checkLeafImage(t, damage(leaf, func(b []byte) { b[3], b[4] = w[0], w[1] }), encodedKeyLen, nil) {
			t.Errorf("leaf with a %d+%d-byte frame decoded", w[0], w[1])
		}
	}
	if checkLeafImage(t, damage(narrow, func(b []byte) { b[3] = 4 }), 11, nil) {
		t.Error("11-byte-key leaf with a 4-byte z width decoded")
	}
	// Widths within the key that run the narrow leaf off the page.
	if checkLeafImage(t, damage(narrow, func(b []byte) { b[3], b[4] = 3, 8 }), 11, nil) {
		t.Error("a leaf widened past the page decoded")
	}
	// A leaf of ids in three clusters takes four bases. Its frame
	// damaged: 3 selector bits, selector bits over no id bytes, and
	// bases that run past the end of the page.
	var es []Entry
	for i := 0; i < 40; i++ {
		es = append(es, Entry{Key: Key{Hi: uint64(i), Lo: []uint64{1000, 1 << 30, 1 << 50}[i%3] + uint64(i)}})
	}
	based := make([]byte, 512)
	encodeLeaf(based, es, frameOf(es, encodedKeyLen), encodedKeyLen)
	if based[4]>>4 != 2 || !checkLeafImage(t, based, encodedKeyLen, nil) {
		t.Fatalf("a leaf of three id clusters has frame byte %#x", based[4])
	}
	for _, b4 := range []byte{based[4]&0x0f | 3<<4, based[4] | 0xc0, 1 << 4, 2 << 4} {
		if checkLeafImage(t, damage(based, func(b []byte) { b[4] = b4 }), encodedKeyLen, nil) {
			t.Errorf("leaf with frame byte %#x decoded", b4)
		}
	}
	empty := damage(based, func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], 0) })
	if !checkLeafImage(t, empty[:leafHeaderLen(encodedKeyLen)+24], encodedKeyLen, nil) {
		t.Error("an empty leaf of four bases ending with its last base did not decode")
	}
	if checkLeafImage(t, empty[:leafHeaderLen(encodedKeyLen)+23], encodedKeyLen, nil) {
		t.Error("a leaf whose last base runs past the page decoded")
	}
	// A count that runs the entries (31 or more at this geometry) or
	// the child array (127 or more separators) off the page.
	for _, count := range []uint16{31, 127, 200, 0xffff} {
		over := func(b []byte) { binary.LittleEndian.PutUint16(b[1:3], count) }
		if checkLeafImage(t, damage(leaf, over), encodedKeyLen, nil) {
			t.Errorf("leaf claiming %d entries decoded", count)
		}
		if checkInternalImage(t, damage(internal, over), nil) && count >= 127 {
			t.Errorf("internal page claiming %d separators decoded", count)
		}
	}
	// A separator length that runs past the end of the page: the
	// first, and the last.
	p, err := viewInternal(internal)
	if err != nil {
		t.Fatal(err)
	}
	lastOff := p.firstSep()
	for i := 0; i < p.count-1; i++ {
		_, lastOff, _ = p.sepAt(lastOff)
	}
	for _, off := range []int{p.firstSep(), lastOff} {
		long := damage(internal, func(b []byte) { binary.LittleEndian.PutUint16(b[off:], 0xfff0) })
		if checkInternalImage(t, long, nil) {
			t.Errorf("separator at %d running past the page decoded", off)
		}
	}
	// Every truncation of the images, down to nothing.
	for cut := 0; cut < 512; cut++ {
		checkLeafImage(t, leaf[:cut], encodedKeyLen, nil)
		checkLeafImage(t, narrow[:cut], 11, nil)
		checkLeafImage(t, based[:cut], encodedKeyLen, nil)
		checkInternalImage(t, internal[:cut], nil)
	}
}

// FuzzPageViews feeds arbitrary bytes to both the views and the
// decoders: whatever the image, they agree on the error or on every
// accessor, and nothing panics.
func FuzzPageViews(f *testing.F) {
	rng := rand.New(rand.NewSource(18))
	f.Add(randomLeafImage(rng, 128, 16), uint8(7), []byte{1, 2})
	f.Add(randomLeafImage(rng, 128, 11), uint8(2), []byte{})
	f.Add(randomLeafImage(rng, 128, 9), uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(randomInternalImage(rng, 128), uint8(7), []byte{0, 1, 2, 0})
	f.Add([]byte{byte(internalType), 0xff, 0xff}, uint8(7), []byte{9})
	f.Add([]byte{byte(internalType), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}, uint8(7), []byte{9})
	f.Add([]byte{byte(leafType), 9, 0}, uint8(4), []byte{})
	// A leaf at every pair of widths, on the shortest key that holds
	// the z width, and the same leaf with its frame corrupted: widths
	// over the key, and widths that run the entries past the page.
	for zw := 0; zw <= 8; zw++ {
		for iw := 0; iw <= 8; iw++ {
			keyLen := 8 + max(zw, 1)
			img := framedLeafImage(rng, 128, keyLen, zw, iw, 2+rng.Intn((128-leafHeaderLen(keyLen))/keyLen-1))
			width := uint8(keyLen - 9)
			f.Add(img, width, []byte{byte(zw), byte(iw)})
			bad := append([]byte(nil), img...)
			bad[3], bad[4] = byte(keyLen-7), byte(9+iw)
			f.Add(bad, width, []byte{})
			wide := append([]byte(nil), img...)
			binary.LittleEndian.PutUint16(wide[1:3], uint16(128/keyLen+1))
			wide[3], wide[4] = byte(keyLen-8), 8
			f.Add(wide, width, []byte{})
		}
	}
	// A leaf of clustered ids on each key length, whose frame may hold
	// several id bases, and the same leaf with 3 selector bits and with
	// its id width cleared under its selector bits.
	for keyLen := 9; keyLen <= 16; keyLen++ {
		es := clusteredEntries(rng, keyLen, rng.Intn(keyLen-7), (128-leafHeaderLen(keyLen))/keyLen)
		img := make([]byte, 128)
		encodeLeaf(img, es, frameOf(es, keyLen), keyLen)
		width := uint8(keyLen - 9)
		f.Add(img, width, []byte{})
		for _, b4 := range []byte{img[4] | 3<<4, img[4] & 0xf0} {
			bad := append([]byte(nil), img...)
			bad[4] = b4
			f.Add(bad, width, []byte{})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, width uint8, enc []byte) {
		keyLen := 9 + int(width%8)
		var k Key
		if len(enc) >= keyLen {
			k = decodeKey(enc[:keyLen])
		}
		checkLeafImage(t, data, keyLen, []Key{k})
		checkInternalImage(t, data, [][]byte{enc})
	})
}

// TestReadPathPageAccesses pins the logical page accesses of a fixed
// seek-and-scan script to the values the decoded-node read path
// produced: the paper's page-access tables are built from these
// counters, so a change to how a page is read may not move where one
// is read.
func TestReadPathPageAccesses(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 4096, disk.LRU)
	tr, err := New(pool, Config{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3000; i++ {
		if err := tr.Insert(Key{Hi: i * 0x9E3779B97F4A7C15, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() != 4 {
		t.Fatalf("height %d, the script was recorded on a tree of height 4", tr.Height())
	}
	snap := tr.Snapshot()
	defer snap.Release()
	var n obs.Counts
	cur := snap.Cursor()
	cur.SetCounts(&n)
	gets := pool.Stats().Gets
	steps := 0
	for i := uint64(0); i < 64; i++ {
		ok, err := cur.SeekGE(Key{Hi: i << 58})
		for j := 0; ok && err == nil && j < 40; j++ {
			steps++
			ok, err = cur.Next()
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := snap.Get(Key{Hi: i * 0x9E3779B97F4A7C15, Lo: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := [4]int64{int64(steps), int64(pool.Stats().Gets - gets), n[obs.NodeVisits], n[obs.LeafScans]}
	want := [4]int64{2560, 1529, 216, 501}
	if got != want {
		t.Errorf("steps, pool gets, node visits, leaf scans = %v, want %v", got, want)
	}
}

// TestNoPinOutlivesACall runs every public entry point of the tree,
// on sound pages and on a damaged one, and requires no snapshot to
// outlive its call: a cursor that is reset, detached or re-aimed at a
// snapshot held by value leaves every released version reclaimable.
// The pool holds no pins at all.
func TestNoPinOutlivesACall(t *testing.T) {
	tree := newTestTree(t, 512, 4, 256)
	rng := rand.New(rand.NewSource(19))
	var keys []Key
	for i := 0; i < 400; i++ {
		k := Key{Hi: rng.Uint64(), Lo: uint64(i)}
		if err := tree.Insert(k, nil); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := tree.Insert(keys[0], nil); err != ErrDuplicateKey {
		t.Fatalf("duplicate insert: %v", err)
	}
	snap := tree.Snapshot()
	defer snap.Release()
	fixed := snap.Cursor()
	for i, k := range keys {
		if ok, err := fixed.SeekGE(k); !ok || err != nil || fixed.Key() != k {
			t.Fatalf("SeekGE(%v): %v %v", k, ok, err)
		}
		for j := 0; j < 6; j++ {
			if _, err := fixed.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok, err := tree.Get(k); err != nil || !ok {
			t.Fatalf("Get(%v) = %v, %v", k, ok, err)
		}
		if _, _, err := snap.Get(Key{Hi: k.Hi, Lo: k.Lo + 1000}); err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			if ok, err := tree.Delete(k); !ok || err != nil {
				t.Fatalf("Delete(%v): %v %v", k, ok, err)
			}
		case 1:
			next := keys[(i+1)%len(keys)]
			muts := []Mutation{{Key: next, Delete: true}, {Key: next}, {Key: Key{Lo: uint64(i)}, Delete: true}}
			if err := tree.CommitBatch(tree.MVCCStats().Seq, muts); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A recycled cursor: Reset re-aims it with its buffers, and the
	// detaching Reset leaves it holding no snapshot, so the version it
	// read is reclaimable once released, and a use after detaching
	// panics on the nil snapshot, not on stale pages.
	s2 := tree.Snapshot()
	fixed.Reset(s2)
	if fixed.Valid() || fixed.snap != s2 {
		t.Fatal("Reset left the cursor positioned, or off the snapshot")
	}
	if ok, err := fixed.SeekGE(keys[1]); !ok || err != nil {
		t.Fatalf("SeekGE after Reset: %v %v", ok, err)
	}
	levels := cap(fixed.stack)
	fixed.Reset(nil)
	if fixed.snap != nil || fixed.span != nil || fixed.ctx != nil || fixed.Valid() {
		t.Fatalf("a detached cursor still refers to its last search: %+v", fixed)
	}
	if cap(fixed.stack) != levels || cap(fixed.leaf.data) == 0 {
		t.Fatal("a detached cursor lost its buffers")
	}
	s2.Release()
	if err := tree.Insert(Key{Hi: 2, Lo: 1 << 41}, nil); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if n := tree.CollectGarbage(); n != 0 {
		t.Fatalf("%d pages retained with every snapshot released and one detached cursor around", n)
	}

	// A snapshot pinned into a caller's value, as a recycled search
	// holds it: one pinned snapshot while held, none once released, and
	// the same value pins again.
	var held Snapshot
	for i := 0; i < 2; i++ {
		fixed.Reset(tree.SnapshotInto(&held))
		if ok, err := fixed.SeekGE(keys[1]); !ok || err != nil {
			t.Fatalf("SeekGE on a snapshot held by value: %v %v", ok, err)
		}
		if n := tree.MVCCStats().PinnedSnapshots; n != 1 {
			t.Fatalf("%d snapshots pinned while one is held by value", n)
		}
		fixed.Reset(nil)
		held.Release()
		if n := tree.MVCCStats().PinnedSnapshots; n != 0 {
			t.Fatalf("%d snapshots pinned after the value's Release", n)
		}
		if err := tree.Insert(Key{Hi: 3, Lo: 1<<42 + uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
		if n := tree.CollectGarbage(); n != 0 {
			t.Fatalf("%d pages retained after the value's Release", n)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SeekGE on a detached cursor did not panic")
			}
		}()
		fixed.SeekGE(keys[1])
	}()

	// Turn the root into a page of no known type, then of the wrong
	// one: every read fails.
	root := tree.Meta().Root
	for _, typ := range []byte{9, byte(leafType)} {
		data, err := tree.pool.View(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		img := append([]byte(nil), data...)
		img[0] = typ
		if err := tree.pool.Put(root, img); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tree.Get(keys[1]); err == nil {
			t.Errorf("Get through a root of type %d succeeded", typ)
		}
		s := tree.Snapshot()
		c := s.Cursor()
		if _, err := c.SeekGE(keys[1]); err == nil || c.Valid() {
			t.Errorf("SeekGE through a root of type %d succeeded", typ)
		}
		s.Release()
		if err := tree.Insert(Key{Hi: 1, Lo: 1 << 40}, nil); err == nil {
			t.Errorf("Insert through a root of type %d succeeded", typ)
		}
		if err := tree.CheckInvariants(); err == nil {
			t.Errorf("CheckInvariants passed a root of type %d", typ)
		}
	}
}
