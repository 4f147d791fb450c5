package btree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"probe/internal/disk"
)

// The tests below run over every key length a tree can have: Hi
// stored in 1 to 8 bytes. A width here is a KeyBits value; widths that
// are not a multiple of 8 share a length with the next multiple but
// refuse more keys.
var keyWidths = []int{1, 5, 8, 12, 16, 24, 27, 32, 40, 48, 56, 63, 64, 0}

// widthMask returns the bits of Hi a key of the width may set.
func widthMask(bits int) uint64 {
	if bits == 0 {
		return ^uint64(0)
	}
	return ^uint64(0) << uint(64-bits)
}

func randomInWidth(rng *rand.Rand, bits int) uint64 { return rng.Uint64() & widthMask(bits) }

func TestKeyWidthEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, bits := range keyWidths {
		keyLen := encodedKeyLen
		if bits != 0 {
			keyLen = keyLenFor(bits)
		}
		low := ^uint64(0) >> (8 * uint(keyLen-8)) // the bits of Hi this length drops
		a, b := make([]byte, keyLen), make([]byte, keyLen)
		var last Key
		lastEnc := make([]byte, keyLen)
		for i := 0; i < 2000; i++ {
			// In-width keys: byte order is key order, and they round-trip.
			x := Key{randomInWidth(rng, bits), rng.Uint64() >> uint(rng.Intn(64))}
			y := Key{randomInWidth(rng, bits), rng.Uint64()}
			if i%3 == 0 {
				y.Hi = x.Hi
			}
			x.encode(a)
			y.encode(b)
			if bytes.Compare(a, b) != x.Compare(y) {
				t.Fatalf("%d bits: order of %v, %v is %d, of their encodings %d", bits, x, y, x.Compare(y), bytes.Compare(a, b))
			}
			if got := decodeKey(a); got != x {
				t.Fatalf("%d bits: %v decodes as %v", bits, x, got)
			}
			if got := refDecodeKey(a); got != x {
				t.Fatalf("%d bits: %v read bytewise is %v", bits, x, got)
			}

			// Any key at all, as a search key: it encodes as the
			// smallest key of this length at or above it, or as the
			// largest one when none is.
			s := Key{rng.Uint64(), rng.Uint64()}
			switch i % 4 {
			case 0:
				s.Hi = x.Hi | low
			case 1:
				s.Hi = ^uint64(0) &^ uint64(rng.Intn(2))
			}
			s.encode(a)
			got := decodeKey(a)
			var want Key
			switch {
			case s.Hi&low == 0:
				want = s
			case s.Hi|low == ^uint64(0):
				want = Key{Hi: ^low, Lo: ^uint64(0)}
				if !bytes.Equal(a, bytes.Repeat([]byte{0xff}, keyLen)) {
					t.Fatalf("%d bits: %v saturates to %x", bits, s, a)
				}
			default:
				want = Key{Hi: (s.Hi | low) + 1}
			}
			if got != want {
				t.Fatalf("%d bits: search key %v encodes as %v, want %v", bits, s, got, want)
			}
			// And the rounding keeps the order, weakly.
			if i > 0 && last.Compare(s)*bytes.Compare(lastEnc, a) < 0 {
				t.Fatalf("%d bits: %v, %v encode out of order (%x, %x)", bits, last, s, lastEnc, a)
			}
			last = s
			copy(lastEnc, a)
		}
	}
}

// TestKeyWidthRejectsStoredKey: a key with a bit below the width never
// reaches a page, whichever way it comes in, and the refused write
// leaves the tree as it was.
func TestKeyWidthRejectsStoredKey(t *testing.T) {
	for _, bits := range keyWidths {
		if bits == 0 || bits == 64 {
			continue
		}
		pool := disk.MustPool(disk.MustMemStore(256), 64, disk.LRU)
		cfg := Config{LeafCapacity: 4, KeyBits: bits}
		tree, err := New(pool, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := tree.Meta().KeyBits; got != bits {
			t.Fatalf("Meta().KeyBits = %d, want %d", got, bits)
		}
		top := uint64(1) << 63
		good := Key{Hi: top, Lo: 1}
		if err := tree.Insert(good, nil); err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		for _, bad := range []Key{{Hi: 1}, {Hi: top | top>>uint(bits), Lo: 2}, {Hi: ^uint64(0)}} {
			if err := tree.Insert(bad, nil); err == nil {
				t.Errorf("%d bits: Insert(%v) accepted", bits, bad)
			}
			if err := tree.CommitBatch(tree.MVCCStats().Seq, []Mutation{{Key: Key{Hi: 0, Lo: 9}}, {Key: bad}}); err == nil {
				t.Errorf("%d bits: CommitBatch with %v accepted", bits, bad)
			}
			entries := []Entry{{Key: Key{}}, {Key: bad}}
			if _, err := Load(pool, cfg, entries, 1); err == nil {
				t.Errorf("%d bits: Load with %v accepted", bits, bad)
			}
			// Absent by construction: looking for it or deleting it is
			// not an error.
			if _, found, err := tree.Get(bad); found || err != nil {
				t.Errorf("%d bits: Get(%v) = %v, %v", bits, bad, found, err)
			}
			if found, err := tree.Delete(bad); found || err != nil {
				t.Errorf("%d bits: Delete(%v) = %v, %v", bits, bad, found, err)
			}
		}
		if tree.Len() != 1 {
			t.Errorf("%d bits: %d entries after refused writes, want 1", bits, tree.Len())
		}
		if err := tree.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
	pool := disk.MustPool(disk.MustMemStore(256), 8, disk.LRU)
	for _, bits := range []int{-1, 65} {
		if _, err := New(pool, Config{KeyBits: bits}); err == nil {
			t.Errorf("KeyBits %d accepted", bits)
		}
	}
}

// TestFrameWidening: on a derived capacity, an id far from a leaf's
// ids takes a second id base, so the leaf keeps narrow id fields. An
// id that no four bases narrow overflows the leaf by its bytes. The
// leaf spreads over its neighbours, and only the piece holding the
// wide key takes the wide frame. Deletes then borrow and merge between
// leaves whose frames differ. The invariants hold throughout.
func TestFrameWidening(t *testing.T) {
	pool := disk.MustPool(disk.MustMemStore(512), 1024, disk.LRU)
	var es []Entry
	for i := uint64(0); i < 2000; i++ {
		es = append(es, Entry{Key: Key{Hi: i * 5 << 40, Lo: i}})
	}
	// Half of a 512-byte page holds 1 904 bits of block bases and
	// entries: the leaves hold 168 keys, 5 bases of 10 bits and entries
	// of 3+8 bits (z gaps of 5 units).
	tree, err := Load(pool, Config{KeyBits: 24}, es, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	leafOf := func(k Key) leafPage {
		t.Helper()
		snap := tree.Snapshot()
		defer snap.Release()
		c := snap.Cursor()
		if ok, err := c.SeekGE(k); !ok || err != nil {
			t.Fatalf("SeekGE(%v): %v, %v", k, ok, err)
		}
		data, err := tree.pool.View(c.LeafID(), nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := viewLeaf(data, tree.keyLen)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The first key of each full leaf (the last holds the rest).
	var firsts []Key
	snap := tree.Snapshot()
	c := snap.Cursor()
	for ok, err := c.First(); ok && err == nil; ok, err = c.Next() {
		if c.pos == 0 && c.leaf.count == 168 {
			if f := c.leaf.frame; f.zbits != 10 || f.bbits != 3 || f.ibits != 8 {
				t.Fatalf("a loaded leaf has frame %+v", f)
			}
			firsts = append(firsts, c.Key())
		}
	}
	snap.Release()
	if len(firsts) != 11 {
		t.Fatalf("%d full leaves of %d", len(firsts), tree.LeafPages())
	}

	// Ids from 2^40, 2^48 and 2^56 up, after the first key of each full
	// leaf: a plain frame would give 171 keys 57-bit id deltas and
	// overflow the page. Id bases keep the id fields at 24 bits or
	// fewer, and the leaf takes the keys.
	for j, k := range firsts {
		for _, from := range []uint64{1 << 40, 1 << 48, 1 << 56} {
			leaves := tree.LeafPages()
			far := Key{Hi: k.Hi, Lo: from + uint64(j)}
			if err := tree.Insert(far, nil); err != nil {
				t.Fatal(err)
			}
			if tree.LeafPages() != leaves {
				t.Fatalf("an id from %#x took %d leaves to %d", from, leaves, tree.LeafPages())
			}
			if p := leafOf(far); p.frame.sel == 0 || p.frame.ibits > 24 {
				t.Fatalf("the leaf holding %v has %d keys in frame %+v", far, p.count, p.frame)
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A random id from 2^63 up, after those: it makes a fifth group of
	// ids below 41-bit offsets, so 172 keys of 64-bit id fields, or 43
	// bits under 2 selector bits, overflow the page. Only a leaf holding
	// such an id may have a wide id field; every other leaf keeps fields
	// of 16 bits or fewer.
	rng := rand.New(rand.NewSource(37))
	wide := func(k Key) bool { return k.Lo >= 1<<63 }
	shares, threeWays := 0, 0
	for j, k := range firsts {
		leaves := tree.LeafPages()
		w := Key{Hi: k.Hi, Lo: 1<<63 | rng.Uint64()}
		if err := tree.Insert(w, nil); err != nil {
			t.Fatal(err)
		}
		switch tree.LeafPages() - leaves {
		case 0:
			shares++
		case 1:
			threeWays++
		default:
			t.Fatalf("a wide id took %d leaves to %d", leaves, tree.LeafPages())
		}
		snap := tree.Snapshot()
		c := snap.Cursor()
		holds := false
		for ok, err := c.First(); ok || err != nil; ok, err = c.Next() {
			if err != nil {
				t.Fatal(err)
			}
			holds = holds && c.pos > 0 || wide(c.Key())
			if c.pos == c.leaf.count-1 && !holds && c.leaf.frame.ibits > 16 {
				t.Fatalf("after %d wide ids, a leaf of no wide id has frame %+v", j+1, c.leaf.frame)
			}
		}
		snap.Release()
		if err := tree.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d pairs redistributed, %d split three ways", shares, threeWays)
	if shares == 0 || threeWays == 0 {
		t.Errorf("%d pairs redistributed and %d split three ways", shares, threeWays)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Leaves alternate wide and 1-byte id frames. Deleting the small
	// ids in order underflows the first leaf again and again: it is
	// re-cut with its right sibling, into two leaves (a borrow) while
	// one cannot hold them, then into one (a merge).
	borrows, merges := 0, 0
	for i, e := range es {
		underfull := leafOf(e.Key).count == tree.minLeaf
		leaves := tree.LeafPages()
		if ok, err := tree.Delete(e.Key); !ok || err != nil {
			t.Fatalf("Delete(%v) = %v, %v", e.Key, ok, err)
		}
		switch {
		case underfull && tree.LeafPages() == leaves:
			borrows++
		case underfull:
			merges++
		}
		if i < 200 || i%50 == 0 {
			if err := tree.CheckInvariants(); err != nil {
				t.Fatalf("after deleting %d keys: %v", i+1, err)
			}
		}
	}
	t.Logf("%d borrows, %d merges", borrows, merges)
	if borrows == 0 || merges == 0 {
		t.Errorf("%d borrows and %d merges", borrows, merges)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 4*len(firsts) {
		t.Errorf("%d keys left, want the %d far and wide ones", tree.Len(), 4*len(firsts))
	}
}

// TestKeyWidthSeekGE holds SeekGE, Get and a full scan of a random
// tree of each width against a sorted slice. Few distinct Hi values
// make runs of one z value span several leaves, so a search key that
// was rounded the wrong way lands in the wrong one; the targets
// include keys no tree of the width can store.
func TestKeyWidthSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, bits := range keyWidths {
		pool := disk.MustPool(disk.MustMemStore(256), 512, disk.LRU)
		cfg := Config{LeafCapacity: 4, KeyBits: bits}
		his := make([]uint64, 12)
		for i := range his {
			his[i] = randomInWidth(rng, bits)
		}
		his[0], his[1], his[2] = 0, 1<<63, widthMask(bits)
		seen := map[Key]bool{}
		var keys []Key
		for len(keys) < 600 {
			k := Key{Hi: his[rng.Intn(len(his))], Lo: uint64(rng.Intn(5000))}
			if rng.Intn(20) == 0 {
				k.Lo = ^uint64(0)
			}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		// Half loaded, half inserted: both writers encode.
		sort.Slice(keys[:300], func(i, j int) bool { return keys[i].Less(keys[j]) })
		entries := make([]Entry, 300)
		for i := range entries {
			entries[i].Key = keys[i]
		}
		tree, err := Load(pool, cfg, entries, 0.75)
		if err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		for _, k := range keys[300:] {
			if err := tree.Insert(k, nil); err != nil {
				t.Fatalf("%d bits: %v", bits, err)
			}
		}
		for i := 0; i < 100; i++ {
			j := rng.Intn(len(keys))
			if ok, err := tree.Delete(keys[j]); !ok || err != nil {
				t.Fatalf("%d bits: Delete(%v) = %v, %v", bits, keys[j], ok, err)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		if err := tree.CheckInvariants(); err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		if tree.Height() < 3 {
			t.Fatalf("%d bits: height %d, the test wants internal levels above the leaves' parents", bits, tree.Height())
		}

		snap := tree.Snapshot()
		c := snap.Cursor()
		ok, err := c.First()
		for i := 0; ; i++ {
			if err != nil {
				t.Fatal(err)
			}
			if ok != (i < len(keys)) || ok && c.Key() != keys[i] {
				t.Fatalf("%d bits: scan differs from the sorted keys at %d", bits, i)
			}
			if !ok {
				break
			}
			ok, err = c.Next()
		}

		var targets []Key
		for _, k := range keys {
			targets = append(targets, k, Key{Hi: k.Hi, Lo: k.Lo + 1}, Key{Hi: k.Hi, Lo: ^uint64(0)},
				Key{Hi: k.Hi | 1, Lo: k.Lo}, Key{Hi: k.Hi | rng.Uint64()>>8}, Key{Hi: k.Hi | rng.Uint64()>>uint(rng.Intn(64)), Lo: rng.Uint64()})
		}
		targets = append(targets, Key{}, Key{Hi: ^uint64(0)}, Key{Hi: ^uint64(0), Lo: ^uint64(0)}, Key{Hi: ^uint64(1)})
		for _, target := range targets {
			want := sort.Search(len(keys), func(i int) bool { return !keys[i].Less(target) })
			ok, err := c.SeekGE(target)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (want < len(keys)) || ok && c.Key() != keys[want] {
				t.Fatalf("%d bits: SeekGE(%v) found %v, want index %d of %d", bits, target, ok, want, len(keys))
			}
			_, found, err := tree.Get(target)
			if err != nil {
				t.Fatal(err)
			}
			if found != (want < len(keys) && keys[want] == target) {
				t.Fatalf("%d bits: Get(%v) = %v", bits, target, found)
			}
		}
		snap.Release()
	}
}
