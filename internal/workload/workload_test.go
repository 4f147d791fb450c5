package workload

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"probe/internal/geom"
	"probe/internal/zorder"
)

func TestUniformDeterministicAndInRange(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	a := Uniform(g, 1000, 42)
	b := Uniform(g, 1000, 42)
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i].ID != uint64(i) {
			t.Fatalf("ids not sequential")
		}
		for d, c := range a[i].Coords {
			if uint64(c) >= g.Side() {
				t.Fatalf("coord out of range")
			}
			if c != b[i].Coords[d] {
				t.Fatalf("not deterministic at %d", i)
			}
		}
	}
	c := Uniform(g, 1000, 43)
	same := 0
	for i := range a {
		if a[i].Coords[0] == c[i].Coords[0] && a[i].Coords[1] == c[i].Coords[1] {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced %d identical points", same)
	}
}

func TestClusteredShape(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	pts := Clustered(g, 50, 100, 5, 1)
	if len(pts) != 5000 {
		t.Fatalf("len = %d", len(pts))
	}
	// Points within one cluster should be near each other: measure
	// mean distance of consecutive points in the same cluster vs
	// across clusters.
	intra, inter := 0.0, 0.0
	for i := 1; i < len(pts); i++ {
		dx := float64(pts[i].Coords[0]) - float64(pts[i-1].Coords[0])
		dy := float64(pts[i].Coords[1]) - float64(pts[i-1].Coords[1])
		d := math.Hypot(dx, dy)
		if i%100 == 0 { // cluster boundary
			inter += d
		} else {
			intra += d
		}
	}
	intra /= float64(len(pts) - 50)
	inter /= 49
	if intra*3 > inter {
		t.Errorf("clusters not tight: intra %.1f vs inter %.1f", intra, inter)
	}
}

func TestDiagonalShape(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	pts := Diagonal(g, 2000, 3, 2)
	if len(pts) != 2000 {
		t.Fatalf("len = %d", len(pts))
	}
	off := 0.0
	for _, p := range pts {
		d := float64(p.Coords[0]) - float64(p.Coords[1])
		if d < 0 {
			d = -d
		}
		off += d
	}
	off /= float64(len(pts))
	if off > 10 {
		t.Errorf("points stray %.1f from the diagonal on average", off)
	}
}

// TestDedupe checks Dedupe against a map of the coordinates seen, run
// on a copy of its input: the same survivors in the same order, each
// the first point at its pixel, on grids with heavy collisions, with
// none but repeats, and with a 64-bit z.
func TestDedupe(t *testing.T) {
	for _, c := range []struct {
		g   zorder.Grid
		pts []geom.Point
	}{
		{zorder.MustGrid(2, 4), Uniform(zorder.MustGrid(2, 4), 1000, 3)},
		{zorder.MustGrid(2, 12), Clustered(zorder.MustGrid(2, 12), 20, 500, 8, 4)},
		{zorder.MustGrid(3, 6), Uniform(zorder.MustGrid(3, 6), 5000, 5)},
		{zorder.MustGrid(2, 32), append(Uniform(zorder.MustGrid(2, 32), 300, 6), Uniform(zorder.MustGrid(2, 32), 300, 6)...)},
		{zorder.MustGrid(2, 32), []geom.Point{
			{ID: 0, Coords: []uint32{math.MaxUint32, math.MaxUint32}}, {ID: 1, Coords: []uint32{0, 0}},
			{ID: 2, Coords: []uint32{math.MaxUint32, math.MaxUint32}}, {ID: 3, Coords: []uint32{0, 0}},
		}},
	} {
		var want []geom.Point
		seen := map[string]bool{}
		for _, p := range slices.Clone(c.pts) {
			if key := fmt.Sprint(p.Coords); !seen[key] {
				seen[key] = true
				want = append(want, p)
			}
		}
		if got := Dedupe(c.g, c.pts); !slices.EqualFunc(got, want, func(a, b geom.Point) bool {
			return a.ID == b.ID && slices.Equal(a.Coords, b.Coords)
		}) {
			t.Errorf("%v: Dedupe kept %d of %d points, the first of each pixel are %d", c.g, len(got), len(c.pts), len(want))
		}
		if len(want) == len(c.pts) {
			t.Errorf("%v: no collisions in the input", c.g)
		}
	}
}

func TestQuerySpecSides(t *testing.T) {
	g := zorder.MustGrid(2, 10) // 1024x1024
	sides, err := (QuerySpec{Volume: 0.01, Aspect: 1}).Sides(g)
	if err != nil {
		t.Fatal(err)
	}
	// 1% of 1024^2 is a ~102x102 square.
	if sides[0] < 95 || sides[0] > 110 || sides[0] != sides[1] {
		t.Errorf("square sides = %v", sides)
	}
	sides, err = (QuerySpec{Volume: 0.01, Aspect: 4}).Sides(g)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(sides[0]) / float64(sides[1])
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("aspect-4 sides = %v (ratio %.2f)", sides, ratio)
	}
	vol := float64(sides[0]) * float64(sides[1]) / (1024.0 * 1024.0)
	if vol < 0.008 || vol > 0.012 {
		t.Errorf("volume = %.4f, want ~0.01", vol)
	}
}

func TestQuerySpecErrors(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	if _, err := (QuerySpec{Volume: 0, Aspect: 1}).Sides(g); err == nil {
		t.Errorf("zero volume accepted")
	}
	if _, err := (QuerySpec{Volume: 2, Aspect: 1}).Sides(g); err == nil {
		t.Errorf("volume > 1 accepted")
	}
	if _, err := (QuerySpec{Volume: 0.5, Aspect: 0}).Sides(g); err == nil {
		t.Errorf("zero aspect accepted")
	}
	if _, err := Queries(g, QuerySpec{Volume: -1, Aspect: 1}, 5, 1); err == nil {
		t.Errorf("Queries with bad spec accepted")
	}
}

func TestQueriesInBounds(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	for _, spec := range PaperSpecs() {
		boxes, err := Queries(g, spec, 5, 99)
		if err != nil {
			t.Fatal(err)
		}
		if len(boxes) != 5 {
			t.Fatalf("box count = %d", len(boxes))
		}
		for _, b := range boxes {
			for d := range b.Lo {
				if b.Lo[d] > b.Hi[d] || uint64(b.Hi[d]) >= g.Side() {
					t.Fatalf("spec %v: box %v out of bounds", spec, b)
				}
			}
		}
	}
}

func TestQueryExtremeAspectClamped(t *testing.T) {
	g := zorder.MustGrid(2, 4) // tiny 16x16 grid
	boxes, err := Queries(g, QuerySpec{Volume: 0.9, Aspect: 16}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range boxes {
		if uint64(b.Hi[0]) >= g.Side() || uint64(b.Hi[1]) >= g.Side() {
			t.Fatalf("clamping failed: %v", b)
		}
	}
}

func TestPartialMatches(t *testing.T) {
	g := zorder.MustGrid(3, 6)
	boxes := PartialMatches(g, []bool{true, false, true}, 10, 5)
	if len(boxes) != 10 {
		t.Fatalf("count = %d", len(boxes))
	}
	for _, b := range boxes {
		if b.Lo[0] != b.Hi[0] || b.Lo[2] != b.Hi[2] {
			t.Fatalf("restricted dims not pinned: %v", b)
		}
		if b.Lo[1] != 0 || uint64(b.Hi[1]) != g.Side()-1 {
			t.Fatalf("unrestricted dim not full: %v", b)
		}
	}
}

func TestPaperSpecs(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 28 {
		t.Fatalf("PaperSpecs has %d entries, want 28 (4 volumes x 7 aspects)", len(specs))
	}
	vols := map[float64]bool{}
	for _, s := range specs {
		vols[s.Volume] = true
	}
	if len(vols) != 4 {
		t.Errorf("expected 4 distinct volumes, got %d", len(vols))
	}
	if specs[0].String() == "" {
		t.Errorf("QuerySpec.String empty")
	}
}
