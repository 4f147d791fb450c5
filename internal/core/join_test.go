package core

import (
	"fmt"
	"math/rand"
	"testing"

	"probe/internal/decompose"
	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/workload"
	"probe/internal/zorder"
)

// decomposeBoxes builds the element relation of a set of boxes.
func decomposeBoxes(g zorder.Grid, boxes []geom.Box) []Item {
	var items []Item
	for id, b := range boxes {
		for _, e := range decompose.Box(g, b) {
			items = append(items, Item{Elem: e, ID: uint64(id)})
		}
	}
	SortItems(items)
	return items
}

func randomBoxes(g zorder.Grid, n int, seed int64) []geom.Box {
	rng := rand.New(rand.NewSource(seed))
	boxes := make([]geom.Box, n)
	for i := range boxes {
		lo := make([]uint32, g.Dims())
		hi := make([]uint32, g.Dims())
		for d := range lo {
			a := uint32(rng.Uint64() % g.Side())
			b := uint32(rng.Uint64() % g.Side())
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		boxes[i] = geom.Box{Lo: lo, Hi: hi}
	}
	return boxes
}

func bruteOverlaps(a, b []geom.Box) []Pair {
	var pairs []Pair
	for i, ba := range a {
		for j, bb := range b {
			if ba.IntersectsBox(bb) {
				pairs = append(pairs, Pair{A: uint64(i), B: uint64(j)})
			}
		}
	}
	return DedupPairs(pairs)
}

func equalPairs(a, b []Pair) bool {
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

// TestSpatialJoinAgainstBruteForce: the join finds exactly the
// overlapping box pairs found by the O(n^2) all-pairs test, on 205
// randomized workloads across grids of different dimensionality and
// depth, and its span counters agree with its QueryStats.
func TestSpatialJoinAgainstBruteForce(t *testing.T) {
	check := func(g zorder.Grid, left, right []geom.Box, label string) {
		t.Helper()
		a, b := decomposeBoxes(g, left), decomposeBoxes(g, right)
		sp := obs.New("join")
		got, stats, err := SpatialJoinDistinctCtx(nil, a, b, sp)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := bruteOverlaps(left, right)
		if !equalPairs(got, want) {
			t.Fatalf("%s: join found %d pairs, brute force %d", label, len(got), len(want))
		}
		if stats.DistinctPairs != len(got) || stats.RawPairs < stats.DistinctPairs {
			t.Fatalf("%s: stats inconsistent: %+v", label, stats)
		}
		if sp.Get(obs.RawPairs) != int64(stats.RawPairs) || sp.Get(obs.DistinctPairs) != int64(len(got)) ||
			sp.Get(obs.MergeSteps) != int64(len(a)+len(b)) {
			t.Fatalf("%s: span %v disagrees with stats %+v", label, sp, stats)
		}
	}
	runs := 0
	g := zorder.MustGrid(2, 6)
	for seed := int64(0); seed < 5; seed++ {
		check(g, randomBoxes(g, 15, seed*2+1), randomBoxes(g, 15, seed*2+2), fmt.Sprintf("seed %d", seed))
		runs++
	}
	grids := []zorder.Grid{
		zorder.MustGrid(1, 6),
		zorder.MustGrid(2, 4),
		zorder.MustGrid(2, 8),
		zorder.MustGrid(3, 4),
	}
	for gi, g := range grids {
		rng := rand.New(rand.NewSource(int64(100 + gi)))
		for seed := int64(0); seed < 50; seed++ {
			na, nb := 3+rng.Intn(25), 3+rng.Intn(25)
			left := randomBoxes(g, na, 1000*int64(gi)+seed*2+1)
			right := randomBoxes(g, nb, 1000*int64(gi)+seed*2+2)
			check(g, left, right, fmt.Sprintf("grid %v seed %d", g, seed))
			runs++
		}
	}
	if runs < 200 {
		t.Fatalf("brute-force harness ran %d workloads, want >= 200", runs)
	}
}

func TestSpatialJoin3D(t *testing.T) {
	g := zorder.MustGrid(3, 4)
	left := randomBoxes(g, 10, 31)
	right := randomBoxes(g, 10, 32)
	got, _, err := SpatialJoinDistinct(decomposeBoxes(g, left), decomposeBoxes(g, right))
	if err != nil {
		t.Fatal(err)
	}
	if !equalPairs(got, bruteOverlaps(left, right)) {
		t.Fatalf("3d join wrong")
	}
}

// TestRangeQueryAsSpatialJoin reproduces the Section 4 claim: "a
// range query is a special case in which one of the relations
// represents the set of points and the other relation represents the
// query region".
func TestRangeQueryAsSpatialJoin(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	pts := workload.Uniform(g, 400, 33)
	box := geom.Box2(10, 40, 5, 50)

	// Relation P: each point is a one-pixel element.
	var pItems []Item
	for _, p := range pts {
		pItems = append(pItems, Item{Elem: g.Shuffle(p.Coords), ID: p.ID})
	}
	SortItems(pItems)
	// Relation B: the decomposed box.
	var bItems []Item
	for _, e := range decompose.Box(g, box) {
		bItems = append(bItems, Item{Elem: e, ID: 0})
	}

	pairs, _, err := SpatialJoinDistinct(pItems, bItems)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, pr := range pairs {
		got = append(got, pr.A)
	}
	want := bruteIDs(pts, box)
	if !equalU64(got, want) {
		t.Fatalf("join-based range query: %d results, want %d", len(got), len(want))
	}
}

func TestSpatialJoinEmptyInputs(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	items := decomposeBoxes(g, []geom.Box{geom.Box2(0, 3, 0, 3)})
	if pairs, err := SpatialJoin(nil, items); err != nil || len(pairs) != 0 {
		t.Errorf("empty left: %v %v", pairs, err)
	}
	if pairs, err := SpatialJoin(items, nil); err != nil || len(pairs) != 0 {
		t.Errorf("empty right: %v %v", pairs, err)
	}
	if pairs, err := SpatialJoin(nil, nil); err != nil || len(pairs) != 0 {
		t.Errorf("both empty: %v %v", pairs, err)
	}
}

func TestSpatialJoinRejectsUnsorted(t *testing.T) {
	unsorted := []Item{
		{Elem: zorder.MustParseElement("10"), ID: 0},
		{Elem: zorder.MustParseElement("01"), ID: 1},
	}
	sorted := []Item{{Elem: zorder.MustParseElement("00"), ID: 0}}
	if _, err := SpatialJoin(unsorted, sorted); err == nil {
		t.Errorf("unsorted left accepted")
	}
	if _, err := SpatialJoin(sorted, unsorted); err == nil {
		t.Errorf("unsorted right accepted")
	}
}

func TestSpatialJoinIdenticalElements(t *testing.T) {
	e := zorder.MustParseElement("0101")
	a := []Item{{Elem: e, ID: 1}}
	b := []Item{{Elem: e, ID: 2}}
	pairs, err := SpatialJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != (Pair{A: 1, B: 2}) {
		t.Errorf("identical elements: %v", pairs)
	}
}

func TestSpatialJoinContainmentBothDirections(t *testing.T) {
	// A large element in A containing a small one in B, and vice
	// versa elsewhere.
	a := []Item{
		{Elem: zorder.MustParseElement("00"), ID: 1},   // contains B's 0010
		{Elem: zorder.MustParseElement("1101"), ID: 2}, // contained in B's 11
	}
	b := []Item{
		{Elem: zorder.MustParseElement("0010"), ID: 10},
		{Elem: zorder.MustParseElement("11"), ID: 20},
	}
	pairs, err := SpatialJoin(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := DedupPairs(pairs)
	want := []Pair{{A: 1, B: 10}, {A: 2, B: 20}}
	if !equalPairs(got, want) {
		t.Errorf("pairs = %v, want %v", got, want)
	}
}

func TestDedupPairs(t *testing.T) {
	in := []Pair{{2, 1}, {1, 1}, {2, 1}, {1, 1}, {1, 2}}
	out := DedupPairs(in)
	want := []Pair{{1, 1}, {1, 2}, {2, 1}}
	if !equalPairs(out, want) {
		t.Errorf("DedupPairs = %v", out)
	}
	if len(DedupPairs(nil)) != 0 {
		t.Errorf("DedupPairs(nil) not empty")
	}
}

func TestSortItems(t *testing.T) {
	items := []Item{
		{Elem: zorder.MustParseElement("0110"), ID: 3},
		{Elem: zorder.MustParseElement("0"), ID: 2},
		{Elem: zorder.MustParseElement("01"), ID: 5},
		{Elem: zorder.MustParseElement("01"), ID: 1},
	}
	SortItems(items)
	if items[0].ID != 2 || items[1].ID != 1 || items[2].ID != 5 || items[3].ID != 3 {
		t.Errorf("SortItems order wrong: %v", items)
	}
	if err := checkSorted(items); err != nil {
		t.Errorf("sorted items rejected: %v", err)
	}
}

// TestJoinScanAgainstBruteForce: the merge of many boxes' elements —
// overlapping, and nested when a box repeats inside another — against
// the index pairs each box with exactly the points inside it, each
// point in z order, and reads no leaf twice: no more leaves than the
// boxes' own searches together.
func TestJoinScanAgainstBruteForce(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	pts := workload.Uniform(g, 3000, 21)
	ix := newTestIndex(t, g, 16)
	if err := ix.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	snap := ix.Snapshot()
	defer snap.Release()
	for seed := int64(0); seed < 20; seed++ {
		boxes := randomBoxes(g, 1+int(seed%6), seed)
		boxes = append(boxes, geom.Box2(boxes[0].Lo[0], boxes[0].Lo[0], boxes[0].Lo[1], boxes[0].Lo[1]), boxes[0])
		want := map[string]int{}
		own := 0
		for id, b := range boxes {
			for _, p := range pts {
				if b.ContainsPoint(p.Coords) {
					want[fmt.Sprint(id, p.ID)]++
				}
			}
			_, st, err := snap.RangeSearch(b, MergeLazy)
			if err != nil {
				t.Fatal(err)
			}
			own += st.DataPages
		}
		got := map[string]int{}
		lastZ := map[int]uint64{}
		st, err := snap.JoinScanCtx(nil, boxes, func(i int, p geom.Point) {
			z := g.ShuffleKey(p.Coords)
			if last, ok := lastZ[i]; ok && z < last {
				t.Fatalf("seed %d: box %d's points out of z order", seed, i)
			}
			lastZ[i] = z
			got[fmt.Sprint(i, p.ID)]++
		})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: %d pairs, want %d", seed, len(got), len(want))
		}
		if st.DataPages > own {
			t.Errorf("seed %d: the merge read %d leaves, the boxes' own searches %d", seed, st.DataPages, own)
		}
	}
}
