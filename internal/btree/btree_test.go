package btree

import (
	"bytes"
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

func TestShortestSeparator(t *testing.T) {
	cases := []struct {
		a, b string
		want string
	}{
		{"apple", "banana", "b"},
		{"abc", "abd", "abd"},
		{"ab", "abc", "abc"},
		{"\x00\x00", "\x00\x01", "\x00\x01"},
	}
	for _, c := range cases {
		got := shortestSeparator([]byte(c.a), []byte(c.b))
		if string(got) != c.want {
			t.Errorf("shortestSeparator(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
		if bytes.Compare(got, []byte(c.a)) <= 0 || bytes.Compare(got, []byte(c.b)) > 0 {
			t.Errorf("separator %q violates a < s <= b", got)
		}
	}
}

func TestShortestSeparatorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ea, eb [encodedKeyLen]byte
	for i := 0; i < 2000; i++ {
		a := Key{rng.Uint64() % 1000, rng.Uint64() % 1000}
		b := Key{rng.Uint64() % 1000, rng.Uint64() % 1000}
		if b.Less(a) {
			a, b = b, a
		}
		if a == b {
			continue
		}
		a.encode(ea[:])
		b.encode(eb[:])
		s := shortestSeparator(ea[:], eb[:])
		if bytes.Compare(s, ea[:]) <= 0 {
			t.Fatalf("separator %x <= left %x", s, ea)
		}
		if bytes.Compare(s, eb[:]) > 0 {
			t.Fatalf("separator %x > right %x", s, eb)
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
	// capacity may not exceed it, and a derived one caps the count at
	// 2*minCap-1 and is recorded as 0.
	minCap := (256 - leafHeaderLen(encodedKeyLen)) / encodedKeyLen
	if _, err := New(pool, Config{LeafCapacity: minCap + 1}); err == nil {
		t.Errorf("leaf capacity %d past the widest frame's %d accepted", minCap+1, minCap)
	}
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.LeafCapacity() != 2*minCap-1 || tr.Meta().LeafCapacity != 0 {
		t.Errorf("derived leaf capacity = %d, recorded as %d", tr.LeafCapacity(), tr.Meta().LeafCapacity)
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

// TestPrefixCompression verifies the "prefix" in prefix B+-tree:
// separators stored in internal nodes are shorter than full keys.
func TestPrefixCompression(t *testing.T) {
	tree := newTestTree(t, 512, 4, 128)
	// Keys whose Hi values differ early: separators should compress
	// to very few bytes.
	for i := uint64(0); i < 200; i++ {
		if err := tree.Insert(Key{Hi: i << 48}, nil); err != nil {
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
		if len(s) >= encodedKeyLen {
			t.Errorf("separator %x not compressed (len %d)", s, len(s))
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
	if err := pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
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
	n, err := tree.loadLeaf(leafID)
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
	wider.zw++
	lower.ids[0], lower.iw = lower.ids[0]-1, 1
	for _, f := range []leafFrame{wider, lower} {
		storeLeaf(leafID, n, f)
		if got, err := tree.loadLeaf(leafID); err != nil || !reflect.DeepEqual(got, n) {
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
	if based.sel != 1 || based.iw != 1 {
		t.Fatalf("ids 1 and 2^56 take frame %+v", based)
	}
	storeLeaf(leafID, n, based)
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// editImage edits the stored image in place; idField is the offset
	// of entry i's id field.
	editImage := func(f leafFrame, edit func(data []byte, idField func(i int) int)) {
		t.Helper()
		img := make([]byte, tree.pageSize)
		encodeLeaf(img, n, f, tree.keyLen)
		p, err := viewLeaf(img, tree.keyLen)
		if err != nil {
			t.Fatal(err)
		}
		edit(img, func(i int) int { return p.first + i*p.stride + p.frame.zw })
		if err := tree.pool.Put(leafID, img); err != nil {
			t.Fatal(err)
		}
	}
	unused := based
	unused.sel = 2
	for _, c := range []struct {
		what  string
		frame leafFrame
		edit  func(data []byte, idField func(int) int)
	}{
		{"a selector of an unused base", unused, func(data []byte, idField func(int) int) {
			// Id 1 as 1 past the fourth base, which is zero.
			data[idField(0)] = 3<<6 | 1
		}},
		{"bases out of order", based, func(data []byte, idField func(int) int) {
			// The base key's id is the 8 bytes before the second base.
			first, second := data[leafHeaderLen(tree.keyLen)-8:][:8], data[leafHeaderLen(tree.keyLen):][:8]
			for i := range first {
				first[i], second[i] = second[i], first[i]
			}
			for i := range n {
				data[idField(i)] ^= 1 << 7
			}
		}},
	} {
		editImage(c.frame, c.edit)
		if got, err := tree.loadLeaf(leafID); err != nil || !reflect.DeepEqual(got, n) {
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
}

func TestDecodeWrongNodeType(t *testing.T) {
	tree := newTestTree(t, 512, 4, 64)
	tree.Insert(Key{Hi: 1}, nil)
	// The root is a leaf; decoding it as internal must fail.
	if _, err := tree.loadInternal(tree.Meta().Root); err == nil {
		t.Errorf("leaf decoded as internal")
	}
}
