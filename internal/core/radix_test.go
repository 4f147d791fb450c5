package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"probe/internal/btree"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// The comparators the radix sorts replaced, kept as their reference:
// the tree's key order, the join's item order and the pair order.
func compareKeys(a, b btree.Key) int { return a.Compare(b) }

func compareItems(a, b Item) int {
	return cmp.Or(a.Elem.Compare(b.Elem), cmp.Compare(a.ID, b.ID))
}

func comparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
}

// radixRecords decodes fuzz bytes into records of each kind, one per
// 16 bytes (a short tail zero-padded): two big-endian words x and y
// give the key (x, y), the pair (x, y) and the item whose element has
// bits x and length x's low byte mod 65, and whose id is y. An
// element's bits below its length are kept: Compare ignores them.
func radixRecords(data []byte) ([]btree.Key, []Item, []Pair) {
	n := (len(data) + 15) / 16
	buf := make([]byte, 16*n)
	copy(buf, data)
	keys, items, pairs := make([]btree.Key, n), make([]Item, n), make([]Pair, n)
	for i := range keys {
		x, y := binary.BigEndian.Uint64(buf[16*i:]), binary.BigEndian.Uint64(buf[16*i+8:])
		keys[i] = btree.Key{Hi: x, Lo: y}
		items[i] = Item{Elem: zorder.Element{Bits: x, Len: uint8(x) % 65}, ID: y}
		pairs[i] = Pair{A: x, B: y}
	}
	return keys, items, pairs
}

// checkSort sorts a copy of recs with sort and checks it against
// slices.SortFunc under the reference comparator, and, exactly, against
// slices.SortStableFunc: the kernel is stable, so records the
// comparator ties keep their input order.
func checkSort[T comparable](t *testing.T, name string, recs []T, sort func([]T), compare func(a, b T) int) {
	t.Helper()
	got := slices.Clone(recs)
	sort(got)
	want := slices.Clone(recs)
	slices.SortFunc(want, compare)
	for i := range got {
		if compare(got[i], want[i]) != 0 {
			t.Fatalf("%s: at %d of %d got %v, slices.SortFunc %v", name, i, len(recs), got[i], want[i])
		}
	}
	want = slices.Clone(recs)
	slices.SortStableFunc(want, compare)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: not the stable order of %d records", name, len(recs))
	}
}

// FuzzRadixMatchesCompare: the radix kernel orders tree keys, join
// items and pairs exactly as the comparators it replaced; DedupPairs
// keeps one of each pair in that order.
func FuzzRadixMatchesCompare(f *testing.F) {
	rec := func(x, y uint64) []byte {
		return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, x), y)
	}
	recs := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	const top = ^uint64(0)
	f.Add([]byte{})                                                                      // n = 0
	f.Add(rec(0x8000_0000_0000_0005, 3))                                                 // n = 1
	f.Add(recs(rec(9, 1), rec(2, 7)))                                                    // n = 2
	f.Add(bytes.Repeat(rec(0xabcd<<48|17, 5), 9))                                        // all equal
	f.Add(recs(rec(1, 1), rec(1, 2), rec(2, 0), rec(3<<56, 0), rec(3<<56, 9)))           // sorted
	f.Add(recs(rec(3<<56, 9), rec(3<<56, 0), rec(2, 0), rec(1, 2), rec(1, 1)))           // reversed
	f.Add(recs(rec(0xff00, 4), rec(0x4000_0000_0000_0000, 4), rec(0, 4)))                // Len 0
	f.Add(recs(rec(0xffff_ffff_ffff_ff40, 1), rec(0x40, 1), rec(0x80, 1), rec(0x40, 0))) // Len 64
	// Len 8 over different bits below it: equal elements, ordered by id.
	f.Add(recs(rec(0x5a00_0000_0000_ff08, 2), rec(0x5a00_0000_0000_0008, 1), rec(0x5a12_3400_0000_0008, 3)))
	f.Add(recs(rec(top, top), rec(top, top-1), rec(top-1, top), rec(0, top), rec(top, 0))) // near 2^64
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, items, pairs := radixRecords(data)
		checkSort(t, "keys", keys, sortKeys, compareKeys)
		checkSort(t, "items", items, SortItems, compareItems)
		got := DedupPairs(slices.Clone(pairs))
		slices.SortFunc(pairs, comparePairs)
		if want := slices.Compact(pairs); !slices.Equal(got, want) {
			t.Fatalf("DedupPairs gave %v, slices.SortFunc and Compact %v", got, want)
		}
	})
}

// TestNewIndexBulkSortsItsInput: a bulk load writes the same pages
// whatever the order of its points, and leaves the caller's slice in
// the order it was given.
func TestNewIndexBulkSortsItsInput(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	pts := workload.Uniform(g, 5000, 42)
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, func(a, b geom.Point) int {
		return cmp.Or(cmp.Compare(g.ShuffleKey(a.Coords), g.ShuffleKey(b.Coords)), cmp.Compare(a.ID, b.ID))
	})
	shuffled := slices.Clone(pts)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	given := slices.Clone(shuffled)
	pages := func(pts []geom.Point) [][]byte {
		store := disk.MustMemStore(1024)
		pool := disk.MustPool(store, 1024, disk.LRU)
		if _, err := NewIndexBulk(pool, g, IndexConfig{}, pts, 0); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, store.NumPages())
		for i := range out {
			out[i] = make([]byte, store.PageSize())
			if err := store.Read(disk.PageID(i+1), out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	want, got := pages(sorted), pages(shuffled)
	if len(got) != len(want) {
		t.Fatalf("shuffled input wrote %d pages, sorted %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("page %d differs between shuffled and sorted input", i+1)
		}
	}
	if !slices.EqualFunc(shuffled, given, func(a, b geom.Point) bool { return a.ID == b.ID }) {
		t.Errorf("NewIndexBulk reordered the caller's points")
	}
}

// benchRelation is a relation of 32 boxes on the 2 x 12 grid, sides
// 8 to 64 as internal/decompose's gate draws them, decomposed box by
// box as a JOIN's input arrives: each box's elements in z order, the
// relation not.
func benchRelation(g zorder.Grid, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	var items []Item
	for id := uint64(0); id < 32; id++ {
		w, h := uint32(8+rng.Intn(57)), uint32(8+rng.Intn(57))
		x, y := uint32(rng.Intn(4096-64)), uint32(rng.Intn(4096-64))
		for _, e := range decompose.Box(g, geom.Box2(x, x+w-1, y, y+h-1)) {
			items = append(items, Item{Elem: e, ID: id})
		}
	}
	return items
}

// BenchmarkSortItems sorts the two relations of a 32-box JOIN.
func BenchmarkSortItems(b *testing.B) {
	g := zorder.MustGrid(2, 12)
	r, s := benchRelation(g, 22), benchRelation(g, 23)
	wr, ws := make([]Item, len(r)), make([]Item, len(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(wr, r)
		copy(ws, s)
		SortItems(wr)
		SortItems(ws)
	}
}

// benchPoints is the benchmark's bulk load: 200 000 uniform points on
// the 2 x 12 grid.
func benchPoints() (zorder.Grid, []geom.Point) {
	g := zorder.MustGrid(2, 12)
	return g, workload.Uniform(g, 200000, 5)
}

// BenchmarkNewIndexBulk bulk-loads 200 000 points into memory.
func BenchmarkNewIndexBulk(b *testing.B) {
	g, pts := benchPoints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := disk.MustPool(disk.MustMemStore(4096), 4096, disk.LRU)
		if _, err := NewIndexBulk(pool, g, IndexConfig{}, pts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadixSort times the kernel against slices.SortFunc under
// the reference comparator, over the same pointer-free records: the
// bulk load's 200 000 keys and a JOIN's two relations.
func BenchmarkRadixSort(b *testing.B) {
	g, pts := benchPoints()
	keys := make([]btree.Key, len(pts))
	for i, p := range pts {
		keys[i] = btree.Key{Hi: g.ShuffleKey(p.Coords), Lo: p.ID}
	}
	items := append(benchRelation(g, 22), benchRelation(g, 23)...)
	b.Run("keys/radix", func(b *testing.B) { benchSort(b, keys, sortKeys) })
	b.Run("keys/sortfunc", func(b *testing.B) {
		benchSort(b, keys, func(k []btree.Key) { slices.SortFunc(k, compareKeys) })
	})
	b.Run("items/radix", func(b *testing.B) { benchSort(b, items, SortItems) })
	b.Run("items/sortfunc", func(b *testing.B) {
		benchSort(b, items, func(it []Item) { slices.SortFunc(it, compareItems) })
	})
}

func benchSort[T any](b *testing.B, recs []T, sort func([]T)) {
	work := make([]T, len(recs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, recs)
		sort(work)
	}
}
