package core

import (
	"math/rand"
	"sort"
	"testing"

	"probe/internal/btree"
	"probe/internal/decompose"
	"probe/internal/disk"
	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/workload"
	"probe/internal/zorder"
)

func newTestIndex(t testing.TB, g zorder.Grid, leafCap int) *Index {
	t.Helper()
	store := disk.MustMemStore(1024)
	pool := disk.MustPool(store, 512, disk.LRU)
	ix, err := NewIndex(pool, g, IndexConfig{LeafCapacity: leafCap})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func allStrategies() []Strategy {
	return []Strategy{MergeDecomposed, MergeLazy, SkipBigMin}
}

func bruteIDs(pts []geom.Point, box geom.Box) []uint64 {
	var ids []uint64
	for _, p := range pts {
		if box.ContainsPoint(p.Coords) {
			ids = append(ids, p.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func resultIDs(pts []geom.Point) []uint64 {
	ids := make([]uint64, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexInsertDelete(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 8)
	p := geom.Pt2(7, 10, 20)
	if err := ix.Insert(p); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if err := ix.Insert(geom.Pt2(8, 10, 20)); err != nil {
		t.Fatalf("second point on the same pixel rejected: %v", err)
	}
	ok, err := ix.Delete(p)
	if err != nil || !ok {
		t.Fatalf("Delete: %v %v", ok, err)
	}
	if ok, _ := ix.Delete(p); ok {
		t.Errorf("double delete succeeded")
	}
	if err := ix.Insert(geom.Point{ID: 1, Coords: []uint32{999, 0}}); err == nil {
		t.Errorf("out-of-grid point accepted")
	}
	if _, err := ix.Delete(geom.Point{ID: 1, Coords: []uint32{999, 0}}); err == nil {
		t.Errorf("out-of-grid delete accepted")
	}
}

func TestIndexGridAccess(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 8)
	if ix.Grid() != g {
		t.Errorf("Grid mismatch")
	}
	if ix.Tree() == nil {
		t.Errorf("Tree is nil")
	}
}

// TestRangeSearchAllStrategiesAgainstBruteForce is the central
// correctness test: on every workload distribution of the paper, all
// three strategies return exactly the brute-force answer, and the span
// counters — counted independently inside the B+-tree and
// decomposition cursors — equal the QueryStats the merge loops
// compute. "inserted" grows its tree by single inserts, as a served
// database does, instead of bulk-loading packed pages.
func TestRangeSearchAllStrategiesAgainstBruteForce(t *testing.T) {
	g := zorder.MustGrid(2, 7)
	datasets := map[string][]geom.Point{
		"uniform":   workload.Uniform(g, 800, 1),
		"clustered": workload.Clustered(g, 10, 80, 3, 2),
		"diagonal":  workload.Diagonal(g, 800, 2, 3),
		"inserted":  workload.Uniform(g, 800, 11),
	}
	rng := rand.New(rand.NewSource(4))
	for name, pts := range datasets {
		ix := newTestIndex(t, g, 10)
		if name == "inserted" {
			for _, p := range pts {
				if err := ix.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
		} else if err := ix.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			lo := make([]uint32, 2)
			hi := make([]uint32, 2)
			for d := range lo {
				a := uint32(rng.Uint64() % g.Side())
				b := uint32(rng.Uint64() % g.Side())
				if a > b {
					a, b = b, a
				}
				lo[d], hi[d] = a, b
			}
			box := geom.Box{Lo: lo, Hi: hi}
			want := bruteIDs(pts, box)
			for _, s := range allStrategies() {
				sp := obs.New("range-search")
				got, stats, err := ix.searchAll(nil, box, s, sp)
				if err != nil {
					t.Fatal(err)
				}
				if !equalU64(resultIDs(got), want) {
					t.Fatalf("%s/%v: box %v returned %d points, want %d",
						name, s, box, len(got), len(want))
				}
				if stats.Results != len(got) {
					t.Fatalf("%s/%v: stats.Results=%d, got %d", name, s, stats.Results, len(got))
				}
				if len(got) > 0 && stats.DataPages == 0 {
					t.Fatalf("%s/%v: results without data pages", name, s)
				}
				// The span gets the search's one set of counts: seeks
				// from the B+-tree cursor at each SeekGE, elements
				// from the merge (strategy C's pixels among them, A's
				// materialized B), so it agrees with the stats read off
				// the same counts.
				for _, c := range []struct {
					name        string
					span, stats int64
				}{
					{"results", sp.Get(obs.Results), int64(stats.Results)},
					{"data-pages", sp.Get(obs.DataPages), int64(stats.DataPages)},
					{"seeks", sp.Get(obs.Seeks), int64(stats.Seeks)},
					{"elements", sp.Get(obs.Elements), int64(stats.Elements)},
				} {
					if c.span != c.stats {
						t.Fatalf("%s/%v: box %v: span %s %d, stats %d", name, s, box, c.name, c.span, c.stats)
					}
				}
				// A seek descends unless its target is in the leaf at
				// hand, and every descent loads a leaf.
				if d := sp.Get(obs.Descents); d > sp.Get(obs.Seeks) || sp.Get(obs.LeafScans) < d {
					t.Fatalf("%s/%v: %d descents for %d seeks and %d leaf scans", name, s,
						d, sp.Get(obs.Seeks), sp.Get(obs.LeafScans))
				}
			}
		}
	}
}

func TestRangeSearch3D(t *testing.T) {
	g := zorder.MustGrid(3, 4)
	pts := workload.Uniform(g, 600, 5)
	ix := newTestIndex(t, g, 10)
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		lo := make([]uint32, 3)
		hi := make([]uint32, 3)
		for d := range lo {
			a := uint32(rng.Uint64() % g.Side())
			b := uint32(rng.Uint64() % g.Side())
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		box := geom.Box{Lo: lo, Hi: hi}
		want := bruteIDs(pts, box)
		for _, s := range allStrategies() {
			got, _, err := ix.RangeSearch(box, s)
			if err != nil {
				t.Fatal(err)
			}
			if !equalU64(resultIDs(got), want) {
				t.Fatalf("3d %v: wrong answer for %v", s, box)
			}
		}
	}
}

func TestRangeSearchResultsInZOrder(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	pts := workload.Uniform(g, 300, 7)
	ix := newTestIndex(t, g, 10)
	ix.BulkLoad(pts)
	box := geom.Box2(5, 50, 10, 60)
	for _, s := range allStrategies() {
		got, _, err := ix.RangeSearch(box, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if g.ShuffleKey(got[i-1].Coords) > g.ShuffleKey(got[i].Coords) {
				t.Fatalf("%v: results not in z order", s)
			}
		}
	}
}

func TestRangeSearchEmptyBoxRegion(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	ix.BulkLoad(workload.Uniform(g, 100, 8))
	// A box in an empty corner.
	empty := geom.Box2(0, 0, 0, 0)
	for _, s := range allStrategies() {
		got, stats, err := ix.RangeSearch(empty, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 && !empty.ContainsPoint(got[0].Coords) {
			t.Fatalf("%v: wrong result", s)
		}
		_ = stats
	}
}

func TestRangeSearchOnEmptyIndex(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	for _, s := range allStrategies() {
		got, stats, err := ix.RangeSearch(geom.FullBox(g), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 || stats.Results != 0 {
			t.Fatalf("%v: results on empty index", s)
		}
	}
}

func TestRangeSearchDimsMismatch(t *testing.T) {
	g := zorder.MustGrid(3, 4)
	ix := newTestIndex(t, g, 10)
	if _, _, err := ix.RangeSearch(geom.Box2(0, 1, 0, 1), MergeLazy); err == nil {
		t.Errorf("2d box on 3d index accepted")
	}
	if _, _, err := ix.RangeSearch(geom.FullBox(g), Strategy(42)); err == nil {
		t.Errorf("unknown strategy accepted")
	}
	if Strategy(42).String() == "" || MergeLazy.String() != "merge-lazy" {
		t.Errorf("Strategy.String wrong")
	}
}

func TestRangeSearchEarlyStop(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	ix := newTestIndex(t, g, 10)
	ix.BulkLoad(workload.Uniform(g, 500, 9))
	for _, s := range allStrategies() {
		n := 0
		if _, err := ix.search(nil, geom.FullBox(g), s, nil, func(geom.Point) bool {
			n++
			return n < 5
		}); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("%v: early stop delivered %d", s, n)
		}
	}
}

func TestPartialMatch(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	pts := workload.Uniform(g, 1000, 10)
	ix := newTestIndex(t, g, 10)
	ix.BulkLoad(pts)
	value := []uint32{17, 0}
	restricted := []bool{true, false}
	want := bruteIDs(pts, geom.PartialMatchBox(g, restricted, value))
	got, _, err := ix.PartialMatchCtx(nil, restricted, value, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(resultIDs(got), want) {
		t.Fatal("partial match wrong")
	}
	if _, _, err := ix.PartialMatchCtx(nil, []bool{true}, value, nil); err == nil {
		t.Errorf("arity mismatch accepted")
	}
}

// TestSkipOptimizationReducesWork: on a diagonal dataset, a query box
// far off the diagonal forces long dead stretches of z space; the
// skip must avoid scanning them. We compare pages touched by
// SkipBigMin with a naive interval scan (every point between the
// box's first and last z value, the z of its low and high corners).
func TestSkipOptimizationReducesWork(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	pts := workload.Diagonal(g, 4000, 3, 11)
	ix := newTestIndex(t, g, 20)
	ix.BulkLoad(pts)
	box := geom.Box2(700, 1000, 0, 300) // off-diagonal box: few points
	_, stats, err := ix.RangeSearch(box, SkipBigMin)
	if err != nil {
		t.Fatal(err)
	}
	// Naive scan: count leaf pages holding any z in [first, last].
	first, _ := g.BigMin(0, box.Lo, box.Hi)
	last := g.ShuffleKey(box.Hi)
	naive := 0
	snap := ix.Tree().Snapshot()
	defer snap.Release()
	c := snap.Cursor()
	var prev disk.PageID
	for ok, _ := c.SeekGE(btree.Key{Hi: first}); ok; ok, _ = c.Next() {
		if c.Key().Hi > last {
			break
		}
		if c.LeafID() != prev {
			naive++
			prev = c.LeafID()
		}
	}
	if naive > 3 && stats.DataPages*2 > naive {
		t.Errorf("skip touched %d pages, naive interval scan %d — no skipping happened",
			stats.DataPages, naive)
	}
}

func TestEfficiencyMetric(t *testing.T) {
	s := QueryStats{DataPages: 4, Results: 40}
	if e := s.Efficiency(20); e != 0.5 {
		t.Errorf("Efficiency = %v, want 0.5", e)
	}
	if (QueryStats{}).Efficiency(20) != 0 {
		t.Errorf("empty stats efficiency should be 0")
	}
}

// TestStrategiesTouchSamePages: the three strategies are one merge with
// three seeks, so they read the same leaves and make the same random
// accesses, B generating no more elements than A materializes.
func TestStrategiesTouchSamePages(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	pts := workload.Uniform(g, 2000, 12)
	for _, leafCap := range []int{20, 0} {
		ix := newTestIndex(t, g, leafCap)
		ix.BulkLoad(pts)
		for _, vol := range []float64{0.001, 0.05, 0.3} {
			boxes, err := workload.Queries(g, workload.QuerySpec{Volume: vol, Aspect: 1}, 10, 13)
			if err != nil {
				t.Fatal(err)
			}
			for _, box := range boxes {
				var stats [3]QueryStats
				for i, s := range allStrategies() {
					if _, stats[i], err = ix.RangeSearch(box, s); err != nil {
						t.Fatal(err)
					}
				}
				a, b, c := stats[0], stats[1], stats[2]
				if a.DataPages != b.DataPages || b.DataPages != c.DataPages {
					t.Errorf("cap %d, box %v: page counts differ across strategies: %d %d %d",
						leafCap, box, a.DataPages, b.DataPages, c.DataPages)
				}
				if a.Seeks != b.Seeks || b.Seeks != c.Seeks {
					t.Errorf("cap %d, box %v: seek counts differ across strategies: %d %d %d",
						leafCap, box, a.Seeks, b.Seeks, c.Seeks)
				}
				if b.Elements > a.Elements {
					t.Errorf("cap %d, box %v: B generated %d elements, A materialized %d",
						leafCap, box, b.Elements, a.Elements)
				}
			}
		}
	}
}

func TestBulkLoadError(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	ix := newTestIndex(t, g, 10)
	err := ix.BulkLoad([]geom.Point{geom.Pt2(0, 1, 1), {ID: 1, Coords: []uint32{99, 0}}})
	if err == nil {
		t.Errorf("bulk load with invalid point succeeded")
	}
}

func TestIndexDecompose(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	ix := newTestIndex(t, g, 10)
	elems, err := ix.Decompose(geom.Box2(2, 3, 0, 3), decompose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 1 || elems[0] != zorder.MustParseElement("001") {
		t.Errorf("Decompose = %v", elems)
	}
}

// A scratch goes back to the pool detached: it pins no version (the
// snapshot it searched is reclaimable once released) and its cursor,
// used by mistake afterwards, panics on the nil tree and cannot read
// pages through another search's buffers.
func TestScratchGoesBackDetached(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	ix := newTestIndex(t, g, 4)
	if err := ix.BulkLoad(workload.Uniform(g, 300, 5)); err != nil {
		t.Fatal(err)
	}
	snap := ix.Snapshot()
	s := scratchPool.Get().(*scratch)
	for _, strategy := range allStrategies() {
		// Stopped early: the cursor is mid-leaf when the search returns.
		if err := snap.searchKeys(s, nil, geom.Box2(0, 255, 0, 255), strategy, func(z, id uint64) bool { return false }); err != nil {
			t.Fatal(err)
		}
	}
	s.release()
	snap.Release()
	if err := ix.Insert(geom.Pt2(1<<40, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if n := ix.Tree().CollectGarbage(); n != 0 {
		t.Errorf("%d pages retained after the only snapshot was released", n)
	}
	if s.pc.Valid() || s.bc.Valid() {
		t.Error("a released scratch has a positioned cursor")
	}
	defer func() {
		if recover() == nil {
			t.Error("a seek on a released scratch's cursor did not panic")
		}
	}()
	s.pc.SeekGE(btree.Key{})
}

// A Pin holds its version in its scratch, and every search on it runs
// on that scratch. Release unpins the version and gives the scratch
// back holding neither the version nor the view.
func TestPinLivesInItsScratch(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	ix := newTestIndex(t, g, 4)
	if err := ix.BulkLoad(workload.Uniform(g, 300, 5)); err != nil {
		t.Fatal(err)
	}
	snap := ix.Pin()
	s := snap.own
	if s == nil || snap != &s.view || snap.snap != &s.pin {
		t.Fatal("a Pin's view and version are not in its scratch")
	}
	if n := ix.Tree().MVCCStats().PinnedSnapshots; n != 1 {
		t.Fatalf("%d snapshots pinned by one Pin", n)
	}
	// Every way out of a search leaves the scratch with the Pin: an
	// answer, an early stop, an error.
	if _, _, err := snap.RangeSearchCtx(nil, geom.Box2(0, 255, 0, 255), nil); err != nil {
		t.Fatal(err)
	}
	if len(s.keys) != 300 {
		t.Fatalf("the Pin's scratch collected %d keys of a 300-point answer", len(s.keys))
	}
	if _, err := snap.RangeScanCtx(nil, geom.Box2(0, 255, 0, 255), func(geom.Point) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.NearestCtx(nil, []uint32{9, 9}, 5, Euclidean, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.RangeSearchCtx(nil, geom.Box{Lo: []uint32{1}, Hi: []uint32{2}}, nil); err == nil {
		t.Fatal("a 1-d box on a 2-d index did not fail")
	}
	snap.Release()
	if n := ix.Tree().MVCCStats().PinnedSnapshots; n != 0 {
		t.Errorf("%d snapshots pinned after Release", n)
	}
	if s.view.snap != nil || s.view.own != nil || s.pin != (btree.Snapshot{}) {
		t.Error("a released Pin's scratch still holds its version or view")
	}
	if err := ix.Insert(geom.Pt2(1<<40, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if n := ix.Tree().CollectGarbage(); n != 0 {
		t.Errorf("%d pages retained after the Pin was released", n)
	}
}

// A scratch gives back no buffer longer than keepLen: one huge NEAREST
// or a scan of the whole tree would otherwise leave every pooled
// scratch holding its candidates or keys.
func TestScratchKeepsNoHugeBuffer(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	var pts []geom.Point
	for x := uint32(0); x < 256; x += 2 {
		for y := uint32(0); y < 256; y += 2 {
			pts = append(pts, geom.Pt2(uint64(len(pts)+1), x, y))
		}
	}
	ix, err := NewIndexBulk(disk.MustPool(disk.MustMemStore(4096), 256, disk.LRU), g, IndexConfig{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	caps := func(s *scratch) [2]int { return [2]int{cap(s.best), cap(s.keys)} }
	snap := ix.Pin()
	s := snap.own
	if nbs, _, err := snap.NearestCtx(nil, []uint32{128, 128}, 5000, Euclidean, nil); err != nil || len(nbs) != 5000 {
		t.Fatal(len(nbs), err)
	}
	if all, _, err := snap.RangeSearchCtx(nil, geom.FullBox(g), nil); err != nil || len(all) != len(pts) {
		t.Fatal(len(all), err)
	}
	if c := caps(s); c[0] <= keepLen || c[1] <= keepLen {
		t.Fatalf("room for %v candidates and keys: the searches did not outgrow the bound", c)
	}
	snap.Release()
	if c := caps(s); c[0] > keepLen || c[1] > keepLen {
		t.Errorf("a released scratch keeps room for %v candidates and keys, bound %d", c, keepLen)
	}
	next := scratchPool.Get().(*scratch)
	defer next.release()
	if c := caps(next); c[0] > keepLen || c[1] > keepLen {
		t.Errorf("a scratch from the pool has room for %v candidates and keys, bound %d", c, keepLen)
	}
}
