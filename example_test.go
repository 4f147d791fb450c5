package probe_test

import (
	"fmt"

	"probe"
)

// The headline problem (Figure 1): find all points in a box.
func Example() {
	g := probe.MustGrid(2, 10) // a 1024 x 1024 space
	db, _ := probe.Open(g, probe.WithLeafCapacity(20))
	db.Insert(probe.Pt2(1, 30, 40))
	db.Insert(probe.Pt2(2, 500, 900))
	db.Insert(probe.Pt2(3, 90, 95))

	pts, _, _ := db.RangeSearch(probe.Box2(0, 100, 0, 100))
	for _, p := range pts {
		fmt.Println(p.ID, p.Coords[0], p.Coords[1])
	}
	// Output:
	// 1 30 40
	// 3 90 95
}

// Decomposing a box into elements reproduces Figure 2 exactly.
func ExampleDecomposeBox() {
	g := probe.MustGrid(2, 3) // the paper's 8x8 grid
	for _, e := range probe.DecomposeBox(g, probe.Box2(1, 3, 0, 4)) {
		fmt.Println(e)
	}
	// Output:
	// 00001
	// 00011
	// 001
	// 010010
	// 011000
	// 011010
}

// The element object class of Section 4: shuffle, precedes, contains.
func ExampleGrid_Shuffle() {
	g := probe.MustGrid(2, 3)
	p := g.Shuffle([]uint32{3, 5}) // Figure 4's worked example
	fmt.Println(p)
	region := probe.DecomposeBox(g, probe.Box2(2, 3, 0, 3))[0]
	fmt.Println(region, region.Contains(g.Shuffle([]uint32{3, 2})))
	// Output:
	// 011011
	// 001 true
}

// Spatial join of two decomposed object relations (Section 4).
func ExampleSpatialJoin() {
	g := probe.MustGrid(2, 6)
	mk := func(id uint64, box probe.Box) []probe.Item {
		var items []probe.Item
		for _, e := range probe.DecomposeBox(g, box) {
			items = append(items, probe.Item{Elem: e, ID: id})
		}
		return items
	}
	lakes := mk(1, probe.Box2(0, 20, 0, 20))
	roads := append(mk(10, probe.Box2(15, 40, 10, 12)), mk(11, probe.Box2(50, 60, 50, 60))...)
	probe.SortItems(lakes)
	probe.SortItems(roads)
	pairs, _, _ := probe.SpatialJoin(lakes, roads)
	for _, p := range pairs {
		fmt.Printf("lake %d overlaps road %d\n", p.A, p.B)
	}
	// Output:
	// lake 1 overlaps road 10
}

// Region set operations on element sequences (Section 6 overlay).
func ExampleUnion() {
	g := probe.MustGrid(2, 4)
	a := probe.DecomposeBox(g, probe.Box2(0, 7, 0, 7))
	b := probe.DecomposeBox(g, probe.Box2(4, 11, 4, 11))
	u, _ := probe.Union(a, b)
	i, _ := probe.Intersect(a, b)
	fmt.Println(probe.Area(g, u), probe.Area(g, i))
	// Output:
	// 112 16
}
