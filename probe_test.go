package probe_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"probe"
)

func TestOpenDefaults(t *testing.T) {
	g := probe.MustGrid(2, 8)
	db, err := probe.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if db.Grid() != g || db.Len() != 0 {
		t.Errorf("fresh DB state wrong")
	}
	if db.LeafPages() != 1 {
		t.Errorf("fresh DB has %d leaf pages", db.LeafPages())
	}
}

func TestOpenBadOptions(t *testing.T) {
	g := probe.MustGrid(2, 8)
	if _, err := probe.Open(g, probe.WithPageSize(1)); err == nil {
		t.Errorf("tiny page size accepted")
	}
	if _, err := probe.Open(g, probe.WithPoolPages(-1)); err == nil {
		t.Errorf("negative pool accepted")
	}
	if _, err := probe.Open(g, probe.WithLeafCapacity(1)); err == nil {
		t.Errorf("leaf capacity 1 accepted")
	}
}

func TestEndToEndRangeSearch(t *testing.T) {
	g := probe.MustGrid(2, 9)
	db, err := probe.Open(g, probe.WithLeafCapacity(20))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var pts []probe.Point
	for i := 0; i < 3000; i++ {
		pts = append(pts, probe.Pt2(uint64(i), uint32(rng.Intn(512)), uint32(rng.Intn(512))))
	}
	if err := db.InsertAll(pts); err != nil {
		t.Fatal(err)
	}
	box := probe.Box2(100, 300, 50, 180)
	want := map[uint64]bool{}
	for _, p := range pts {
		if box.ContainsPoint(p.Coords) {
			want[p.ID] = true
		}
	}
	got, stats, err := db.RangeSearch(box)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for _, p := range got {
		if !want[p.ID] {
			t.Fatalf("unexpected point %v", p)
		}
	}
	if stats.DataPages == 0 || stats.Results != len(got) {
		t.Fatalf("stats wrong: %+v", stats)
	}
}

func TestDeleteAndRequery(t *testing.T) {
	g := probe.MustGrid(2, 6)
	db, _ := probe.Open(g)
	p := probe.Pt2(9, 10, 10)
	if err := db.Insert(p); err != nil {
		t.Fatal(err)
	}
	if ok, _ := db.Delete(p); !ok {
		t.Fatal("delete failed")
	}
	got, _, err := db.RangeSearch(probe.Box2(0, 63, 0, 63))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("deleted point still found")
	}
}

func TestPartialMatchFacade(t *testing.T) {
	g := probe.MustGrid(2, 6)
	db, _ := probe.Open(g)
	for i := uint64(0); i < 64; i++ {
		db.Insert(probe.Pt2(i, uint32(i), uint32(i*7%64)))
	}
	got, _, err := db.PartialMatch([]bool{true, false}, []uint32{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Coords[0] != 5 {
		t.Errorf("partial match = %v", got)
	}
}

func TestFacadeElementOps(t *testing.T) {
	g := probe.MustGrid(2, 3)
	// Figure 2: region [2:3, 0:3] has z value 001.
	elems := probe.DecomposeBox(g, probe.Box2(2, 3, 0, 3))
	if len(elems) != 1 || elems[0].String() != "001" {
		t.Fatalf("DecomposeBox = %v", elems)
	}
	e := elems[0]
	if !e.Contains(g.Shuffle([]uint32{3, 2})) {
		t.Errorf("contains failed")
	}
	whole, err := probe.Decompose(g, probe.Box2(0, 7, 0, 7), probe.DecomposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if probe.Area(g, whole) != 64 {
		t.Errorf("whole-space area wrong")
	}
	if got := probe.Condense(whole); len(got) != 1 {
		t.Errorf("condense wrong")
	}
}

func TestFacadeOverlayAndComponents(t *testing.T) {
	g := probe.MustGrid(2, 5)
	a := probe.DecomposeBox(g, probe.Box2(0, 7, 0, 7))
	b := probe.DecomposeBox(g, probe.Box2(16, 23, 16, 23))
	both, err := probe.Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	comps, err := probe.LabelComponents(g, both)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	inter, err := probe.Intersect(a, b)
	if err != nil || len(inter) != 0 {
		t.Errorf("disjoint intersect wrong")
	}
	diff, err := probe.Subtract(both, a)
	if err != nil || probe.Area(g, diff) != 64 {
		t.Errorf("subtract wrong")
	}
	x, err := probe.XOR(a, b)
	if err != nil || probe.Area(g, x) != 128 {
		t.Errorf("xor wrong")
	}
}

func TestFacadeSpatialJoin(t *testing.T) {
	g := probe.MustGrid(2, 5)
	mk := func(id uint64, box probe.Box) []probe.Item {
		var items []probe.Item
		for _, e := range probe.DecomposeBox(g, box) {
			items = append(items, probe.Item{Elem: e, ID: id})
		}
		return items
	}
	left := append(mk(1, probe.Box2(0, 10, 0, 10)), mk(2, probe.Box2(20, 30, 20, 30))...)
	right := mk(7, probe.Box2(8, 22, 8, 22))
	probe.SortItems(left)
	probe.SortItems(right)
	pairs, stats, err := probe.SpatialJoin(left, right)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].A < pairs[j].A })
	if len(pairs) != 2 || pairs[0].A != 1 || pairs[1].A != 2 {
		t.Fatalf("join pairs = %v", pairs)
	}
	if stats.DistinctPairs != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFacadeInterference(t *testing.T) {
	g := probe.MustGrid(2, 7)
	sq := func(cx, cy, half float64) probe.Polygon {
		p, _ := probeNewPolygon(cx, cy, half)
		return p
	}
	parts := []probe.Part{
		{ID: 1, Outline: sq(20, 20, 6)},
		{ID: 2, Outline: sq(25, 20, 6)},
		{ID: 3, Outline: sq(90, 90, 6)},
	}
	pairs, stats, err := probe.DetectInterference(g, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].A != 1 || pairs[0].B != 2 {
		t.Fatalf("pairs = %v (stats %+v)", pairs, stats)
	}
}

func probeNewPolygon(cx, cy, half float64) (probe.Polygon, error) {
	return probe.Polygon{V: []probe.Vertex{
		{X: cx - half, Y: cy - half},
		{X: cx + half, Y: cy - half},
		{X: cx + half, Y: cy + half},
		{X: cx - half, Y: cy + half},
	}}, nil
}

func TestCachesAndStats(t *testing.T) {
	g := probe.MustGrid(2, 8)
	db, _ := probe.Open(g, probe.WithLeafCapacity(10), probe.WithPoolPages(16))
	for i := uint64(0); i < 1000; i++ {
		db.Insert(probe.Pt2(i, uint32(i%256), uint32((i*37)%256)))
	}
	if err := db.DropCaches(); err != nil {
		t.Fatal(err)
	}
	_, st, err := db.RangeSearch(probe.Box2(0, 255, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	if st.PhysReads == 0 {
		t.Errorf("cold scan performed no physical reads")
	}
	if db.Index() == nil {
		t.Errorf("Index accessor nil")
	}
}

func TestFacadeNearest(t *testing.T) {
	g := probe.MustGrid(2, 8)
	db, _ := probe.Open(g)
	db.InsertAll([]probe.Point{
		probe.Pt2(1, 10, 10), probe.Pt2(2, 12, 10), probe.Pt2(3, 200, 200),
	})
	ns, stats, err := db.Nearest([]uint32{11, 10}, 2, probe.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 2 || ns[0].Dist != 1 || ns[1].Dist != 1 {
		t.Fatalf("neighbors = %v", ns)
	}
	if stats.DataPages == 0 {
		t.Errorf("no page accesses recorded")
	}
	// Chebyshev distance of (12,10) from (11,10) is also 1.
	ns, _, _ = db.Nearest([]uint32{11, 10}, 3, probe.Chebyshev)
	if len(ns) != 3 || ns[2].Point.ID != 3 {
		t.Errorf("chebyshev neighbors wrong: %v", ns)
	}
}

func TestFacadeOpenPacked(t *testing.T) {
	g := probe.MustGrid(2, 8)
	var pts []probe.Point
	for i := 0; i < 2000; i++ {
		pts = append(pts, probe.Pt2(uint64(i), uint32(i%256), uint32((i*13)%256)))
	}
	packed, err := probe.Open(g, probe.WithLeafCapacity(20), probe.WithBulkLoad(pts))
	if err != nil {
		t.Fatal(err)
	}
	loose, _ := probe.Open(g, probe.WithLeafCapacity(20))
	loose.InsertAll(pts)
	if packed.Len() != loose.Len() {
		t.Fatalf("lengths differ")
	}
	if packed.LeafPages() >= loose.LeafPages() {
		t.Errorf("packed db has %d pages, loose %d", packed.LeafPages(), loose.LeafPages())
	}
	a, _, _ := packed.RangeSearch(probe.Box2(10, 100, 10, 100))
	b, _, _ := loose.RangeSearch(probe.Box2(10, 100, 10, 100))
	if len(a) != len(b) {
		t.Errorf("results differ: %d vs %d", len(a), len(b))
	}
}

func TestFacadeContainsRegion(t *testing.T) {
	g := probe.MustGrid(2, 5)
	big := probe.DecomposeBox(g, probe.Box2(0, 20, 0, 20))
	small := probe.DecomposeBox(g, probe.Box2(3, 9, 3, 9))
	if ok, err := probe.ContainsRegion(big, small); err != nil || !ok {
		t.Errorf("containment not detected")
	}
	if ok, _ := probe.ContainsRegion(small, big); ok {
		t.Errorf("reverse containment reported")
	}
}

func TestFacadeAsymGrid(t *testing.T) {
	g, err := probe.NewGridAsym([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := probe.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(probe.Pt2(1, 10, 200))
	box, err := probe.NewBox([]uint32{0, 100}, []uint32{15, 255})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.RangeSearch(box)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("asym facade query = %v", got)
	}
	if probe.MustGridAsym(3, 3) != probe.MustGrid(2, 3) {
		t.Errorf("equal-bit asym grid should normalize")
	}
}

func TestFacadeExplain(t *testing.T) {
	g := probe.MustGrid(2, 8)
	db, _ := probe.Open(g, probe.WithLeafCapacity(20))
	for i := 0; i < 2000; i++ {
		db.Insert(probe.Pt2(uint64(i), uint32(i%256), uint32((i*31)%256)))
	}
	desc, err := db.Explain(probe.Box2(0, 20, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "index scan") {
		t.Errorf("small box should explain as index scan: %s", desc)
	}
	desc, err = db.Explain(probe.Box2(0, 255, 0, 255))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("index scan on db box(0..255, 0..255) (est. %d pages)", db.LeafPages()); desc != want {
		t.Errorf("whole-space box should explain as an index scan of every leaf, %q: %s", want, desc)
	}
}

func TestDeleteBox(t *testing.T) {
	g := probe.MustGrid(2, 7)
	db, _ := probe.Open(g)
	for i := uint64(0); i < 500; i++ {
		db.Insert(probe.Pt2(i, uint32(i%128), uint32((i*17)%128)))
	}
	box := probe.Box2(0, 63, 0, 63)
	before, _, _ := db.RangeSearch(box)
	n, err := db.DeleteBox(box)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(before) || n == 0 {
		t.Fatalf("deleted %d, want %d", n, len(before))
	}
	after, _, _ := db.RangeSearch(box)
	if len(after) != 0 {
		t.Errorf("%d points survived DeleteBox", len(after))
	}
	if db.Len() != 500-n {
		t.Errorf("Len = %d", db.Len())
	}
}

// TestConcurrentAccess hammers the DB from many goroutines; run with
// -race to validate the serialization.
func TestConcurrentAccess(t *testing.T) {
	g := probe.MustGrid(2, 8)
	db, _ := probe.Open(g, probe.WithLeafCapacity(10))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				id := uint64(w*1000 + i)
				p := probe.Pt2(id, uint32(rng.Intn(256)), uint32(rng.Intn(256)))
				if err := db.Insert(p); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%10 == 0 {
					if _, _, err := db.RangeSearch(probe.Box2(0, 127, 0, 127)); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
				if i%25 == 0 {
					if _, err := db.Delete(p); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len() != 8*300-8*12 {
		t.Errorf("Len = %d", db.Len())
	}
}

func TestScan(t *testing.T) {
	g := probe.MustGrid(2, 6)
	db, _ := probe.Open(g)
	for i := uint64(0); i < 200; i++ {
		db.Insert(probe.Pt2(i, uint32(i%64), uint32((i*11)%64)))
	}
	var prev uint64
	n := 0
	err := db.Scan(func(p probe.Point) bool {
		z := g.ShuffleKey(p.Coords)
		if n > 0 && z < prev {
			t.Fatalf("scan out of z order at %d", n)
		}
		prev = z
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("scan saw %d points", n)
	}
	// Early stop.
	n = 0
	db.Scan(func(probe.Point) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop delivered %d", n)
	}
}

// TestLargePageLeafCount: a leaf header counts its entries in 16 bits,
// so no leaf may hold more than 65 535 even where its page's bytes
// would take more. 100 000 points bulk-loaded on 1 MiB pages fit one
// leaf's bytes; they take two leaves, and a scan returns every one.
func TestLargePageLeafCount(t *testing.T) {
	pts := make([]probe.Point, 100000)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32(i%3125), uint32(i/3125))
	}
	db, err := probe.Open(probe.MustGrid(2, 12), probe.WithPageSize(1<<20), probe.WithBulkLoad(pts))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n := 0
	if err := db.Scan(func(probe.Point) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(pts) || db.LeafPages() < 2 {
		t.Fatalf("a scan of %d points in %d leaves returned %d", len(pts), db.LeafPages(), n)
	}
}
