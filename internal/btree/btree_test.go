package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"probe/internal/disk"
)

func newTestTree(t testing.TB, pageSize, leafCap, poolCap int) *Tree {
	t.Helper()
	store := disk.MustMemStore(pageSize)
	pool := disk.MustPool(store, poolCap, disk.LRU)
	tree, err := New(pool, Config{LeafCapacity: leafCap})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestKeyOrdering(t *testing.T) {
	ks := []Key{{0, 0}, {0, 1}, {1, 0}, {1, 5}, {2, 0}}
	for i := range ks {
		for j := range ks {
			if ks[i].Less(ks[j]) != (i < j) {
				t.Errorf("Less(%v,%v) wrong", ks[i], ks[j])
			}
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if ks[i].Compare(ks[j]) != want {
				t.Errorf("Compare(%v,%v) wrong", ks[i], ks[j])
			}
		}
	}
}

func TestKeyEncodingPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b [encodedKeyLen]byte
	for i := 0; i < 2000; i++ {
		x := Key{rng.Uint64(), rng.Uint64()}
		y := Key{rng.Uint64(), rng.Uint64()}
		x.encode(a[:])
		y.encode(b[:])
		if (bytes.Compare(a[:], b[:]) < 0) != x.Less(y) {
			t.Fatalf("encoding order mismatch for %v, %v", x, y)
		}
		if decodeKey(a[:]) != x {
			t.Fatalf("decode mismatch")
		}
	}
}

// refShortestSeparator is the separator as a byte string: the
// shortest prefix of b that sorts above a, for encodings a < b. It is
// the reference separator pads to a key.
func refShortestSeparator(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return append([]byte(nil), b[:i+1]...)
}

// checkSeparator checks separator(a, b) for stored keys a < b of
// keyLen bytes: a < s <= b, and s is the reference's prefix of b's
// encoding padded with zeros.
func checkSeparator(t *testing.T, a, b Key, keyLen int) Key {
	t.Helper()
	s := separator(a, b)
	if !a.Less(s) || b.Less(s) {
		t.Fatalf("separator(%v, %v) = %v, not in (a, b]", a, b, s)
	}
	ea, eb := make([]byte, keyLen), make([]byte, keyLen)
	a.encode(ea)
	b.encode(eb)
	pad := make([]byte, keyLen)
	copy(pad, refShortestSeparator(ea, eb))
	if want := decodeKey(pad); s != want {
		t.Fatalf("separator(%v, %v) = %v, want %v (%x padded)", a, b, s, want, refShortestSeparator(ea, eb))
	}
	return s
}

func TestShortestSeparator(t *testing.T) {
	for _, c := range []struct {
		a, b, want Key
	}{
		{Key{Hi: 0x12ff << 48, Lo: 5}, Key{Hi: 0x1300 << 48, Lo: 7}, Key{Hi: 0x13 << 56}},
		{Key{Hi: 0x1234 << 48}, Key{Hi: 0x1235 << 48, Lo: 1}, Key{Hi: 0x1235 << 48}},
		{Key{Hi: 1 << 56, Lo: 0x0102}, Key{Hi: 1 << 56, Lo: 0x0103}, Key{Hi: 1 << 56, Lo: 0x0103}},
		{Key{Hi: 1 << 56, Lo: 0x00ff << 48}, Key{Hi: 1 << 56, Lo: 0x0100<<48 | 9}, Key{Hi: 1 << 56, Lo: 1 << 56}},
		{Key{Hi: 0, Lo: ^uint64(0)}, Key{Hi: 1 << 8}, Key{Hi: 1 << 8}},
	} {
		if got := checkSeparator(t, c.a, c.b, encodedKeyLen); got != c.want {
			t.Errorf("separator(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestShortestSeparatorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		// Bytes from a small alphabet, so that keys share prefixes.
		keyLen := 9 + rng.Intn(8)
		ea, eb := make([]byte, keyLen), make([]byte, keyLen)
		for j := range ea {
			ea[j], eb[j] = []byte{0, 1, 0xff}[rng.Intn(3)], []byte{0, 1, 0xff}[rng.Intn(3)]
		}
		if rng.Intn(2) == 0 {
			copy(eb, ea[:rng.Intn(keyLen)])
		}
		a, b := decodeKey(ea), decodeKey(eb)
		if b.Less(a) {
			a, b = b, a
		}
		if a != b {
			checkSeparator(t, a, b, keyLen)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	store := disk.MustMemStore(256)
	pool := disk.MustPool(store, 8, disk.LRU)
	if _, err := New(pool, Config{LeafCapacity: 1}); err == nil {
		t.Errorf("leaf capacity 1 accepted")
	}
	if _, err := New(pool, Config{LeafCapacity: 1000}); err == nil {
		t.Errorf("oversized leaf capacity accepted")
	}
	// minCap entries fit the page at the widest frame: an explicit
	// capacity may not exceed it, and a derived one caps the count only
	// at what a leaf header holds, and is recorded as 0.
	minCap := (256 - leafHeaderLen(encodedKeyLen)) / encodedKeyLen
	if _, err := New(pool, Config{LeafCapacity: minCap + 1}); err == nil {
		t.Errorf("leaf capacity %d past the widest frame's %d accepted", minCap+1, minCap)
	}
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.LeafCapacity() != 65535 || tr.Meta().LeafCapacity != 0 {
		t.Errorf("derived leaf capacity = %d, recorded as %d", tr.LeafCapacity(), tr.Meta().LeafCapacity)
	}
	// A page header counts entries and separators in 16 bits: on a 1 MiB
	// page 116 506 keys of 9 bytes fit at full width and 69 905
	// children an internal node, but neither count may pass 65 535.
	big := disk.MustPool(disk.MustMemStore(1<<20), 8, disk.LRU)
	if _, err := New(big, Config{LeafCapacity: 65536, KeyBits: 8}); err == nil {
		t.Error("leaf capacity 65 536 accepted")
	}
	tr, err = New(big, Config{LeafCapacity: 65535, KeyBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tr.fanout != 65535 {
		t.Errorf("fanout %d on a 1 MiB page", tr.fanout)
	}
}

func TestInsertGet(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	for i := uint64(0); i < 100; i++ {
		if err := tree.Insert(Key{Hi: i * 7 % 100, Lo: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok, err := tree.Get(Key{Hi: i * 7 % 100, Lo: i}); err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, _ := tree.Get(Key{Hi: 9999}); ok {
		t.Errorf("absent key found")
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Height() < 2 {
		t.Errorf("100 entries at leaf cap 4 should have split (height %d)", tree.Height())
	}
}

func TestInsertDuplicate(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	k := Key{Hi: 5, Lo: 9}
	if err := tree.Insert(k, nil); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(k, nil); err != ErrDuplicateKey {
		t.Errorf("duplicate insert: %v", err)
	}
	if tree.Len() != 1 {
		t.Errorf("Len = %d after duplicate", tree.Len())
	}
}

func TestInsertRejectsValue(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	if err := tree.Insert(Key{}, []byte{1, 2}); err == nil || tree.Len() != 0 {
		t.Errorf("a value was accepted: %v, Len %d", err, tree.Len())
	}
}

func TestCursorFullScan(t *testing.T) {
	tree := newTestTree(t, 512, 5, 64)
	const n = 500
	perm := rand.New(rand.NewSource(3)).Perm(n)
	for _, i := range perm {
		if err := tree.Insert(Key{Hi: uint64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	ok, err := c.First()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !ok {
			t.Fatalf("cursor ended early at %d", i)
		}
		if c.Key().Hi != uint64(i) {
			t.Fatalf("scan out of order: got %d at position %d", c.Key().Hi, i)
		}
		ok, err = c.Next()
		if err != nil {
			t.Fatal(err)
		}
	}
	if ok || c.Valid() {
		t.Errorf("cursor should be exhausted")
	}
	if more, _ := c.Next(); more {
		t.Errorf("Next on exhausted cursor")
	}
}

func TestCursorSeekGE(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	// Keys 0, 10, 20, ..., 990.
	for i := uint64(0); i < 100; i++ {
		if err := tree.Insert(Key{Hi: i * 10}, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	cases := []struct {
		seek uint64
		want uint64
		ok   bool
	}{
		{0, 0, true},
		{1, 10, true},
		{10, 10, true},
		{995, 0, false},
		{990, 990, true},
		{989, 990, true},
	}
	for _, cse := range cases {
		ok, err := c.SeekGE(Key{Hi: cse.seek})
		if err != nil {
			t.Fatal(err)
		}
		if ok != cse.ok {
			t.Fatalf("SeekGE(%d) ok=%v", cse.seek, ok)
		}
		if ok && c.Key().Hi != cse.want {
			t.Fatalf("SeekGE(%d) = %d, want %d", cse.seek, c.Key().Hi, cse.want)
		}
	}
}

func TestCursorOnEmptyTree(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	if ok, _ := c.First(); ok {
		t.Errorf("First on empty tree")
	}
	if ok, _ := c.SeekGE(Key{Hi: 5}); ok {
		t.Errorf("SeekGE on empty tree")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Key on invalid cursor should panic")
		}
	}()
	c.Key()
}

func TestDeleteSimple(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	for i := uint64(0); i < 20; i++ {
		tree.Insert(Key{Hi: i}, nil)
	}
	ok, err := tree.Delete(Key{Hi: 7})
	if err != nil || !ok {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if _, found, _ := tree.Get(Key{Hi: 7}); found {
		t.Errorf("deleted key still present")
	}
	if ok, _ := tree.Delete(Key{Hi: 7}); ok {
		t.Errorf("double delete succeeded")
	}
	if tree.Len() != 19 {
		t.Errorf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := tree.Insert(Key{Hi: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	order := rand.New(rand.NewSource(4)).Perm(n)
	for step, i := range order {
		ok, err := tree.Delete(Key{Hi: uint64(i)})
		if err != nil {
			t.Fatalf("delete %d (step %d): %v", i, step, err)
		}
		if !ok {
			t.Fatalf("delete %d reported absent", i)
		}
		if step%37 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", step+1, err)
			}
		}
	}
	if tree.Len() != 0 {
		t.Errorf("Len = %d after deleting everything", tree.Len())
	}
	if tree.Height() != 1 {
		t.Errorf("height = %d after deleting everything", tree.Height())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The store should hold only the root leaf.
	if n := tree.Pool().Store().NumPages(); n != 1 {
		t.Errorf("store has %d pages after full delete, want 1", n)
	}
}

// TestRandomizedAgainstReference runs a mixed insert/delete/lookup
// workload against a reference map, checking invariants and full
// scans along the way.
func TestRandomizedAgainstReference(t *testing.T) {
	tree := newTestTree(t, 256, 6, 128)
	ref := make(map[Key]bool)
	rng := rand.New(rand.NewSource(5))
	randKey := func() Key {
		return Key{Hi: rng.Uint64() % 200, Lo: rng.Uint64() % 5}
	}
	for step := 0; step < 8000; step++ {
		k := randKey()
		switch rng.Intn(3) {
		case 0: // insert
			err := tree.Insert(k, nil)
			if ref[k] {
				if err != ErrDuplicateKey {
					t.Fatalf("step %d: insert existing %v: %v", step, k, err)
				}
			} else {
				if err != nil {
					t.Fatalf("step %d: insert %v: %v", step, k, err)
				}
				ref[k] = true
			}
		case 1: // delete
			ok, err := tree.Delete(k)
			if err != nil {
				t.Fatalf("step %d: delete %v: %v", step, k, err)
			}
			if ref[k] != ok {
				t.Fatalf("step %d: delete %v ok=%v, ref=%v", step, k, ok, ref[k])
			}
			delete(ref, k)
		case 2: // lookup
			_, ok, err := tree.Get(k)
			if err != nil {
				t.Fatalf("step %d: get %v: %v", step, k, err)
			}
			if ref[k] != ok {
				t.Fatalf("step %d: get %v ok=%v, ref=%v", step, k, ok, ref[k])
			}
		}
		if step%997 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkScanMatchesRef(t, tree, ref)
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkScanMatchesRef(t, tree, ref)
}

func checkScanMatchesRef(t *testing.T, tree *Tree, ref map[Key]bool) {
	t.Helper()
	keys := make([]Key, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	ok, err := c.First()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !ok {
			t.Fatalf("scan ended at %d of %d", i, len(keys))
		}
		if c.Key() != k {
			t.Fatalf("scan key %v, want %v", c.Key(), k)
		}
		ok, err = c.Next()
		if err != nil {
			t.Fatal(err)
		}
	}
	if ok {
		t.Fatalf("scan has extra entries beyond %d", len(keys))
	}
	if tree.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", tree.Len(), len(ref))
	}
}

// TestPrefixCompression verifies the "prefix" in prefix B+-tree: a
// separator stored in an internal node keeps only the bytes that tell
// its subtrees apart, the rest of the key zero.
func TestPrefixCompression(t *testing.T) {
	tree := newTestTree(t, 512, 4, 128)
	// Keys whose Hi values differ in their top two bytes: separators
	// keep those bytes alone.
	for i := uint64(0); i < 200; i++ {
		if err := tree.Insert(Key{Hi: i<<48 | 0xabcd, Lo: 0x1234}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Height() < 2 {
		t.Fatal("tree did not split")
	}
	n, err := tree.loadInternal(tree.Meta().Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range n.seps {
		if s.Lo != 0 || s.Hi<<16 != 0 {
			t.Errorf("separator %v not compressed to two bytes", s)
		}
	}
}

// TestPaperConfiguration builds the paper's experimental setup: 5000
// points, page capacity 20.
func TestPaperConfiguration(t *testing.T) {
	tree := newTestTree(t, 1024, 20, 256)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 5000; i++ {
		k := Key{Hi: rng.Uint64(), Lo: uint64(i)}
		if err := tree.Insert(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 5000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// With capacity 20 and splits at half occupancy, leaf count must
	// be within [250, 500].
	if tree.LeafPages() < 250 || tree.LeafPages() > 500 {
		t.Errorf("leaf pages = %d, outside [250,500]", tree.LeafPages())
	}
}

// TestScanPageAccesses verifies the merge-friendliness claim: a full
// scan along the cursor's cached descent path reads each leaf page
// exactly once even with a small pool.
func TestScanPageAccesses(t *testing.T) {
	store := disk.MustMemStore(1024)
	pool := disk.MustPool(store, 4, disk.LRU)
	tree, err := New(pool, Config{LeafCapacity: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tree.Insert(Key{Hi: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pool.Invalidate()
	store.ResetStats()
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	n := 0
	for ok, err := c.First(); ok; ok, err = c.Next() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2000 {
		t.Fatalf("scan saw %d entries", n)
	}
	reads := store.Stats().Reads
	// The cursor caches its decoded descent path, so a full scan reads
	// each leaf exactly once and each internal node exactly once. The
	// internal-node allowance is leaves/2: far more than a real tree
	// has, far less than re-descending from the root for each leaf
	// would cost.
	if reads > uint64(tree.LeafPages()+tree.LeafPages()/2+tree.Height()) {
		t.Errorf("scan performed %d reads for %d leaves", reads, tree.LeafPages())
	}
}

func TestTreeGrowsAndShrinksHeight(t *testing.T) {
	tree := newTestTree(t, 256, 2, 256)
	const n = 500
	for i := uint64(0); i < n; i++ {
		if err := tree.Insert(Key{Hi: i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	grown := tree.Height()
	if grown < 3 {
		t.Fatalf("height = %d, expected deep tree", grown)
	}
	for i := uint64(0); i < n; i++ {
		if ok, err := tree.Delete(Key{Hi: i}); !ok || err != nil {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if tree.Height() != 1 {
		t.Errorf("height = %d after emptying, want 1", tree.Height())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	tree := newTestTree(b, 4096, 0, 1024)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Insert(Key{Hi: rng.Uint64(), Lo: uint64(i)}, nil)
	}
}

func BenchmarkSeekGE(b *testing.B) {
	tree := newTestTree(b, 4096, 0, 1024)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		tree.Insert(Key{Hi: rng.Uint64(), Lo: uint64(i)}, nil)
	}
	snap := tree.Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SeekGE(Key{Hi: rng.Uint64()})
	}
}

func TestKeyString(t *testing.T) {
	if (Key{Hi: 1, Lo: 2}).String() == "" {
		t.Errorf("Key.String empty")
	}
}

func TestCursorKeyAndLeafIDPanics(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	empty := tree.Snapshot()
	defer empty.Release()
	c := empty.Cursor()
	for _, fn := range []func(){
		func() { c.Key() },
		func() { c.LeafID() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("accessor on invalid cursor should panic")
				}
			}()
			fn()
		}()
	}
	tree.Insert(Key{Hi: 1}, nil)
	snap := tree.Snapshot()
	defer snap.Release()
	c.Reset(snap)
	if ok, _ := c.First(); !ok {
		t.Fatal("First failed")
	}
	if c.LeafID() == 0 {
		t.Errorf("LeafID should be a real page")
	}
}

// TestCheckInvariantsDetectsCorruption: the checker must notice
// hand-planted structural damage.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	for i := uint64(0); i < 100; i++ {
		tree.Insert(Key{Hi: i}, nil)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// storeLeaf writes a decoded leaf back into its page in place, in
	// frame f — deliberate corruption, bypassing the copy-on-write
	// discipline.
	storeLeaf := func(id disk.PageID, n []Entry, f leafFrame) {
		t.Helper()
		img := make([]byte, tree.pageSize)
		encodeLeaf(img, n, f, tree.keyLen)
		if err := tree.pool.Put(id, img); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt a leaf: swap two keys so ordering breaks.
	snap := tree.Snapshot()
	c := snap.Cursor()
	c.First()
	leafID := c.LeafID()
	snap.Release()
	n, err := tree.loadLeaf(nil, leafID)
	if err != nil {
		t.Fatal(err)
	}
	n[0], n[1] = n[1], n[0]
	storeLeaf(leafID, n, frameOf(n, tree.keyLen))
	if err := tree.CheckInvariants(); err == nil {
		t.Errorf("corrupted leaf passed invariant check")
	}
	n[0], n[1] = n[1], n[0]
	// Store the same keys in a frame that is not minimal: a width wider
	// than the deltas need, or a base below the smallest id. Each
	// decodes to the right keys, and each fails the check.
	canon := frameOf(n, tree.keyLen)
	wider, lower := canon, canon
	wider.zbits++
	lower.ids[0], lower.ibits = lower.ids[0]-1, 1
	for _, f := range []leafFrame{wider, lower} {
		storeLeaf(leafID, n, f)
		if got, err := tree.loadLeaf(nil, leafID); err != nil || !reflect.DeepEqual(got, n) {
			t.Fatalf("frame %+v: the leaf decodes as %v, %v", f, got, err)
		}
		if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Errorf("leaf in frame %+v (canonical %+v): %v", f, canon, err)
		}
	}
	// Give the leaf ids 1 and 2^56, which take two id bases, then store
	// them with a selector that names an unused, zero base, and with the
	// two bases swapped, the selectors flipped to match. Each decodes to
	// the right keys, and each fails the check.
	ids := []uint64{n[0].Key.Lo, n[1].Key.Lo}
	n[0].Key.Lo, n[1].Key.Lo = 1, 1<<56
	based := frameOf(n, tree.keyLen)
	if based.sel != 1 || based.ibits != 1 {
		t.Fatalf("ids 1 and 2^56 take frame %+v", based)
	}
	storeLeaf(leafID, n, based)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// editImage edits the stored image in place; editID rewrites entry
	// i's id field.
	editImage := func(f leafFrame, edit func(data []byte, editID func(i int, edit func(uint64) uint64))) {
		t.Helper()
		img := make([]byte, tree.pageSize)
		encodeLeaf(img, n, f, tree.keyLen)
		p, err := viewLeaf(img, tree.keyLen)
		if err != nil {
			t.Fatal(err)
		}
		edit(img, func(i int, edit func(uint64) uint64) {
			end := uint(p.zAt + maxFieldBits + p.ibits + i*p.stride)
			mask, pad := ^uint64(0)>>(64-f.ibits), -end&7
			b := img[(end+7)/8-8:]
			word := binary.BigEndian.Uint64(b)
			binary.BigEndian.PutUint64(b, word&^(mask<<pad)|edit(word>>pad&mask)&mask<<pad)
		})
		if err := tree.pool.Put(leafID, img); err != nil {
			t.Fatal(err)
		}
	}
	unused := based
	unused.sel, unused.ibits = 2, 3
	for _, c := range []struct {
		what  string
		frame leafFrame
		edit  func(data []byte, editID func(int, func(uint64) uint64))
	}{
		{"a selector of an unused base", unused, func(data []byte, editID func(int, func(uint64) uint64)) {
			// Id 1 as 1 past the fourth base, which is zero.
			editID(0, func(uint64) uint64 { return 3<<1 | 1 })
		}},
		{"bases out of order", based, func(data []byte, editID func(int, func(uint64) uint64)) {
			// The base key's id is the 8 bytes before the second base.
			first, second := data[leafHeaderLen(tree.keyLen)-8:][:8], data[leafHeaderLen(tree.keyLen):][:8]
			for i := range first {
				first[i], second[i] = second[i], first[i]
			}
			for i := range n {
				editID(i, func(x uint64) uint64 { return x ^ 1<<(based.ibits-1) })
			}
		}},
	} {
		editImage(c.frame, c.edit)
		if got, err := tree.loadLeaf(nil, leafID); err != nil || !reflect.DeepEqual(got, n) {
			t.Fatalf("%s: the leaf decodes as %v, %v", c.what, got, err)
		}
		if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "canonical") {
			t.Errorf("%s: %v", c.what, err)
		}
	}
	// Restore, then corrupt the entry counter.
	n[0].Key.Lo, n[1].Key.Lo = ids[0], ids[1]
	storeLeaf(leafID, n, canon)
	tree.cur.count++
	if err := tree.CheckInvariants(); err == nil {
		t.Errorf("wrong count passed invariant check")
	}
	tree.cur.count--
	// Corrupt the leaf counter.
	tree.cur.leaves++
	if err := tree.CheckInvariants(); err == nil {
		t.Errorf("wrong leaf count passed invariant check")
	}
	tree.cur.leaves--
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("restored tree fails invariant check: %v", err)
	}
	// Swap the root's first two separators in its image.
	rootID := tree.Meta().Root
	rootNode, err := tree.loadInternal(rootID)
	if err != nil || len(rootNode.seps) < 2 {
		t.Fatalf("root of %d separators, %v", len(rootNode.seps), err)
	}
	rootNode.seps[0], rootNode.seps[1] = rootNode.seps[1], rootNode.seps[0]
	img := make([]byte, tree.pageSize)
	rootNode.encode(img, tree.keyLen)
	if err := tree.pool.Put(rootID, img); err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "separators not increasing") {
		t.Errorf("root with its separators swapped: %v", err)
	}

	// A root leaf of 100 keys, id i and z 3i, 10 more from i = 50 on,
	// has four blocks: three stored bases of 9 bits, and z gaps of 4 bits
	// (3, and 13 at i = 50). Block 2's base damaged: past every key, it
	// breaks the key order; one below its first key, with the block's
	// first z gap raised to match, it would decode to the same keys, but
	// a block's first z gap must be 0. A gap in block 2 raised to 15
	// carries the keys after it past block 3's base.
	var es []Entry
	for i := uint64(0); i < 100; i++ {
		es = append(es, Entry{Key: Key{Hi: 3*i + 10*(i/50), Lo: i}})
	}
	blocks, err := Load(disk.MustPool(disk.MustMemStore(4096), 8, disk.LRU), Config{}, es, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := blocks.Meta().Root
	data, err := blocks.pool.View(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := viewLeaf(data, blocks.keyLen)
	if err != nil {
		t.Fatal(err)
	}
	if f := p.frame; f.zbits != 9 || f.bbits != 4 || len(p.bases) != 4 {
		t.Fatalf("a leaf of z 3i, 10 more from i = 50, i < 100, has frame %+v and %d blocks", f, len(p.bases))
	}
	// editField rewrites the field of width bits that ends at bit end.
	editField := func(img []byte, end, width int, edit func(uint64) uint64) {
		mask, pad := ^uint64(0)>>(64-width), uint(-end&7)
		b := img[(end+7)/8-8:]
		word := binary.BigEndian.Uint64(b)
		binary.BigEndian.PutUint64(b, word&^(mask<<pad)|edit(word>>pad&mask)&mask<<pad)
	}
	baseEnd := 8*p.frame.headerLen(blocks.keyLen) + 2*p.frame.zbits
	for _, c := range []struct {
		what, want string
		edit       func(img []byte)
	}{
		{"a block base past every key", "order", func(img []byte) {
			editField(img, baseEnd, p.frame.zbits, func(uint64) uint64 { return 1<<9 - 1 })
		}},
		{"a block base below its first key", "first z gap is not 0", func(img []byte) {
			editField(img, baseEnd, p.frame.zbits, func(x uint64) uint64 { return x - 1 })
			editField(img, p.zAt+maxFieldBits+64*p.stride, p.frame.bbits, func(x uint64) uint64 { return x + 1 })
		}},
		{"a raised in-block gap", "order", func(img []byte) {
			editField(img, p.zAt+maxFieldBits+80*p.stride, p.frame.bbits, func(uint64) uint64 { return 15 })
		}},
	} {
		img := append([]byte(nil), data...)
		c.edit(img)
		if err := blocks.pool.Put(root, img); err != nil {
			t.Fatal(err)
		}
		if err := blocks.CheckInvariants(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v", c.what, err)
		}
	}
}

func TestDecodeWrongNodeType(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	tree.Insert(Key{Hi: 1}, nil)
	// The root is a leaf; decoding it as internal must fail.
	if _, err := tree.loadInternal(tree.Meta().Root); err == nil {
		t.Errorf("leaf decoded as internal")
	}
}
