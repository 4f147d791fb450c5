package decompose

import (
	"math/rand"
	"testing"
	"testing/quick"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// checkExactCover verifies the fundamental decomposition contract:
// elements are sorted, pairwise disjoint, each fully inside the
// member set, and together they cover it exactly.
func checkExactCover(t *testing.T, g zorder.Grid, elems []zorder.Element, member func(coords []uint32) bool) {
	t.Helper()
	for i := 1; i < len(elems); i++ {
		if elems[i-1].Compare(elems[i]) >= 0 {
			t.Fatalf("elements out of order at %d: %v >= %v", i, elems[i-1], elems[i])
		}
		if !elems[i-1].Disjoint(elems[i]) {
			t.Fatalf("overlapping elements %v, %v", elems[i-1], elems[i])
		}
	}
	covered := make(map[uint64]bool)
	for _, e := range elems {
		lo, hi := g.Region(e)
		coords := make([]uint32, g.Dims())
		var walk func(dim int)
		walk = func(dim int) {
			if dim == g.Dims() {
				if !member(coords) {
					t.Fatalf("element %v covers non-member pixel %v", e, coords)
				}
				covered[g.ShuffleKey(coords)] = true
				return
			}
			for c := lo[dim]; ; c++ {
				coords[dim] = c
				walk(dim + 1)
				if c == hi[dim] {
					break
				}
			}
		}
		walk(0)
	}
	// Every member pixel must be covered.
	coords := make([]uint32, g.Dims())
	var walk func(dim int)
	walk = func(dim int) {
		if dim == g.Dims() {
			if member(coords) && !covered[g.ShuffleKey(coords)] {
				t.Fatalf("member pixel %v not covered", coords)
			}
			return
		}
		for c := uint32(0); c < uint32(g.Side()); c++ {
			coords[dim] = c
			walk(dim + 1)
		}
	}
	walk(0)
}

// checkMaximal verifies no two sibling elements are both present (the
// decomposition never splits further than necessary).
func checkMaximal(t *testing.T, elems []zorder.Element) {
	t.Helper()
	seen := make(map[zorder.Element]bool, len(elems))
	for _, e := range elems {
		seen[e] = true
	}
	for _, e := range elems {
		if e.Len == 0 {
			continue
		}
		sib := e.Parent().Child(1 - e.Bit(int(e.Len)-1))
		if seen[sib] {
			t.Fatalf("siblings %v and %v both present; decomposition not maximal", e, sib)
		}
	}
}

func TestDecomposeFigure1Box(t *testing.T) {
	// The query of Figure 1: 1 <= X <= 3, 0 <= Y <= 4 on an 8x8 grid.
	g := zorder.MustGrid(2, 3)
	b := geom.Box2(1, 3, 0, 4)
	elems := Box(g, b)
	checkExactCover(t, g, elems, func(c []uint32) bool { return b.ContainsPoint(c) })
	checkMaximal(t, elems)
	// The large element 001 (= [2:3, 0:3], Figures 2 and 3) must be
	// produced whole.
	found := false
	for _, e := range elems {
		if e == zorder.MustParseElement("001") {
			found = true
		}
	}
	if !found {
		t.Errorf("decomposition %v does not contain element 001", elems)
	}
}

func TestDecomposeWholeSpace(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	elems := Box(g, geom.FullBox(g))
	if len(elems) != 1 || elems[0] != (zorder.Element{}) {
		t.Fatalf("whole space should decompose to the empty element, got %v", elems)
	}
}

func TestDecomposeSinglePixel(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	b := geom.Box2(5, 5, 2, 2)
	elems := Box(g, b)
	if len(elems) != 1 || elems[0] != g.Shuffle([]uint32{5, 2}) {
		t.Fatalf("single pixel decomposition wrong: %v", elems)
	}
}

func TestDecomposeRandomBoxes(t *testing.T) {
	for _, g := range []zorder.Grid{zorder.MustGrid(2, 3), zorder.MustGrid(2, 4), zorder.MustGrid(3, 2), zorder.MustGrid(1, 6)} {
		rng := rand.New(rand.NewSource(int64(g.TotalBits())))
		for trial := 0; trial < 30; trial++ {
			lo := make([]uint32, g.Dims())
			hi := make([]uint32, g.Dims())
			for i := range lo {
				a := uint32(rng.Uint64() % g.Side())
				b := uint32(rng.Uint64() % g.Side())
				if a > b {
					a, b = b, a
				}
				lo[i], hi[i] = a, b
			}
			b := geom.Box{Lo: lo, Hi: hi}
			elems := Box(g, b)
			checkExactCover(t, g, elems, func(c []uint32) bool { return b.ContainsPoint(c) })
			checkMaximal(t, elems)
			if PixelCount(g, elems) != b.Volume() {
				t.Fatalf("pixel count %d != volume %d", PixelCount(g, elems), b.Volume())
			}
		}
	}
}

func TestDecomposeDisk(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	d, _ := geom.NewDisk([]float64{8, 8}, 5)
	elems, err := Object(g, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	member := func(c []uint32) bool {
		dx := float64(c[0]) + 0.5 - 8
		dy := float64(c[1]) + 0.5 - 8
		return dx*dx+dy*dy <= 25
	}
	checkExactCover(t, g, elems, member)
}

func TestDecomposePolygon(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	p := geom.MustPolygon(
		geom.Vertex{X: 1, Y: 1}, geom.Vertex{X: 14, Y: 2},
		geom.Vertex{X: 9, Y: 13}, geom.Vertex{X: 2, Y: 9},
	)
	elems, err := Object(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	member := func(c []uint32) bool {
		return p.ContainsPoint(float64(c[0])+0.5, float64(c[1])+0.5)
	}
	checkExactCover(t, g, elems, member)
}

func TestDecomposeDimsMismatch(t *testing.T) {
	g := zorder.MustGrid(3, 4)
	if _, err := Object(g, geom.Box2(0, 1, 0, 1), Options{}); err == nil {
		t.Errorf("2-d object on 3-d grid accepted")
	}
	if _, err := NewCursor(g, geom.Box2(0, 1, 0, 1), Options{}); err == nil {
		t.Errorf("cursor with mismatched dims accepted")
	}
}

func TestDecomposeBadMaxLen(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	if _, err := Object(g, geom.Box2(0, 1, 0, 1), Options{MaxLen: 7}); err == nil {
		t.Errorf("MaxLen beyond resolution accepted")
	}
	if _, err := Object(g, geom.Box2(0, 1, 0, 1), Options{MaxLen: -1}); err == nil {
		t.Errorf("negative MaxLen accepted")
	}
}

// TestCoarseDecomposition checks the MaxLen / DropBoundary semantics:
// the outer approximation covers a superset of the object's pixels,
// the inner approximation a subset, and coarser grids cost fewer
// elements.
func TestCoarseDecomposition(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	d, _ := geom.NewDisk([]float64{8, 8}, 5.3)
	member := func(c []uint32) bool {
		dx := float64(c[0]) + 0.5 - 8
		dy := float64(c[1]) + 0.5 - 8
		return dx*dx+dy*dy <= 5.3*5.3
	}
	covers := func(elems []zorder.Element, z uint64) bool {
		p := zorder.Element{Bits: z, Len: uint8(g.TotalBits())}
		for _, e := range elems {
			if e.Contains(p) {
				return true
			}
		}
		return false
	}
	full, _ := Object(g, d, Options{})
	for maxLen := 2; maxLen <= 8; maxLen += 2 {
		outer, err := Object(g, d, Options{MaxLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		inner, err := Object(g, d, Options{MaxLen: maxLen, DropBoundary: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(outer) < len(inner) {
			t.Errorf("maxLen %d: outer has fewer elements (%d) than inner (%d)", maxLen, len(outer), len(inner))
		}
		coords := make([]uint32, 2)
		for x := uint32(0); x < 16; x++ {
			for y := uint32(0); y < 16; y++ {
				coords[0], coords[1] = x, y
				z := g.ShuffleKey(coords)
				if member(coords) && !covers(outer, z) {
					t.Fatalf("maxLen %d: outer approximation misses member pixel (%d,%d)", maxLen, x, y)
				}
				if covers(inner, z) && !member(coords) {
					t.Fatalf("maxLen %d: inner approximation covers non-member (%d,%d)", maxLen, x, y)
				}
			}
		}
		if len(outer) > len(full)+1 {
			t.Errorf("maxLen %d: coarse outer decomposition larger (%d) than full (%d)", maxLen, len(outer), len(full))
		}
	}
}

func TestCountMatchesObject(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	b := geom.Box2(3, 11, 2, 13)
	elems := Box(g, b)
	n, err := Count(g, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(elems) {
		t.Errorf("Count = %d, len(Object) = %d", n, len(elems))
	}
}

// TestECyclic reproduces the Section 5.1 property E(U,V) = E(2U,2V):
// doubling the rectangle on a grid with one more bit of resolution
// produces exactly the same number of elements.
func TestECyclic(t *testing.T) {
	g5 := zorder.MustGrid(2, 5)
	g6 := zorder.MustGrid(2, 6)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		u := uint32(rng.Intn(31) + 1)
		v := uint32(rng.Intn(31) + 1)
		if E(g5, u, v) != E(g6, 2*u, 2*v) {
			t.Errorf("E(%d,%d)=%d but E(%d,%d)=%d", u, v, E(g5, u, v), 2*u, 2*v, E(g6, 2*u, 2*v))
		}
	}
}

// TestEPowerOfTwo: aligned power-of-two squares decompose to a single
// element.
func TestEPowerOfTwo(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	for _, s := range []uint32{1, 2, 4, 8, 16, 32, 64} {
		if n := E(g, s, s); n != 1 {
			t.Errorf("E(%d,%d) = %d, want 1", s, s, n)
		}
	}
	// A 2^m x 2^(m+1) rectangle is also a single element (it is a
	// region of the splitting).
	if n := E(g, 32, 64); n != 1 {
		t.Errorf("E(32,64) = %d, want 1", n)
	}
	if n := E(g, 64, 32); n != 2 {
		t.Errorf("E(64,32) = %d, want 2 (split is x-first)", n)
	}
}

// TestEBitSpanSensitivity: E(U,V) grows with the number of bit
// positions between the first and last 1 bits of U|V (Section 5.1).
// The canonical instance: U = V = 2^m is tiny, U = V = 2^m - 1 is
// large.
func TestEBitSpanSensitivity(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	if E(g, 32, 32) >= E(g, 31, 31) {
		t.Errorf("E(32,32)=%d should be far below E(31,31)=%d", E(g, 32, 32), E(g, 31, 31))
	}
	// "Small changes in the position of the border can lead to large
	// increases in E(U,V)": 33 = 100001 has full bit span.
	if E(g, 33, 33) <= E(g, 32, 32) {
		t.Errorf("E(33,33)=%d should exceed E(32,32)=%d", E(g, 33, 33), E(g, 32, 32))
	}
}

func TestCountBoxErrors(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	if _, err := CountBox(g, []uint32{1}); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if _, err := CountBox(g, []uint32{17, 1}); err == nil {
		t.Errorf("oversized side accepted")
	}
	if n, err := CountBox(g, []uint32{0, 5}); err != nil || n != 0 {
		t.Errorf("empty box should count 0 elements, got %d, %v", n, err)
	}
	// Each side is checked against its own dimension's resolution.
	ga := zorder.MustGridAsym(3, 5)
	if _, err := CountBox(ga, []uint32{9, 7}); err == nil {
		t.Errorf("asymmetric: oversized side accepted")
	}
	want, err := Count(ga, geom.Box2(0, 1, 0, 19), Options{})
	if n, err2 := CountBox(ga, []uint32{2, 20}); err != nil || err2 != nil || n != want {
		t.Errorf("asymmetric CountBox = %d, %v; Count of the box = %d, %v", n, err2, want, err)
	}
}

func TestExpandBoundary(t *testing.T) {
	// The paper's example: U = 01101101, m = 4 -> U' = 01110000.
	if got := ExpandBoundary(0b01101101, 4); got != 0b01110000 {
		t.Errorf("ExpandBoundary(0b01101101, 4) = %b, want 0b01110000", got)
	}
	if ExpandBoundary(112, 4) != 112 {
		t.Errorf("already-aligned value must be unchanged")
	}
	if ExpandBoundary(109, 0) != 109 {
		t.Errorf("m=0 must be identity")
	}
	for m := 1; m < 8; m++ {
		for u := uint32(1); u < 300; u += 7 {
			got := ExpandBoundary(u, m)
			if got < uint64(u) {
				t.Fatalf("ExpandBoundary(%d,%d) = %d shrank", u, m, got)
			}
			if got%(1<<uint(m)) != 0 {
				t.Fatalf("ExpandBoundary(%d,%d) = %d not aligned", u, m, got)
			}
			if got-uint64(u) >= 1<<uint(m) {
				t.Fatalf("ExpandBoundary(%d,%d) = %d overshoots", u, m, got)
			}
		}
	}
}

// TestExpandBoundaryReducesElements measures the Section 5.1
// optimization: expanding the boundary reduces the element count while
// growing the area only slightly.
func TestExpandBoundaryReducesElements(t *testing.T) {
	g := zorder.MustGrid(2, 8)
	u, v := uint32(0b01101101), uint32(0b01011011)
	base := E(g, u, v)
	prev := base
	for m := 1; m <= 4; m++ {
		eu, ev := uint32(ExpandBoundary(u, m)), uint32(ExpandBoundary(v, m))
		n := E(g, eu, ev)
		if n > prev {
			t.Errorf("m=%d: element count %d grew from %d", m, n, prev)
		}
		prev = n
		areaGrowth := float64(eu)*float64(ev)/(float64(u)*float64(v)) - 1
		if areaGrowth > 0.25 {
			t.Errorf("m=%d: area grew by %.0f%%", m, areaGrowth*100)
		}
	}
	if prev >= base {
		t.Errorf("expansion to m=4 did not reduce elements (%d -> %d)", base, prev)
	}
}

func TestCondense(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	b := geom.Box2(1, 3, 0, 4)
	elems := Box(g, b)
	// Shatter every element into pixels, then condense back.
	var pixels []zorder.Element
	for _, e := range elems {
		lo, hi := g.Region(e)
		for x := lo[0]; x <= hi[0]; x++ {
			for y := lo[1]; y <= hi[1]; y++ {
				pixels = append(pixels, g.Shuffle([]uint32{x, y}))
			}
		}
	}
	// Pixels of disjoint elements arrive z-sorted per element; sort all.
	for i := 1; i < len(pixels); i++ {
		for j := i; j > 0 && pixels[j].Compare(pixels[j-1]) < 0; j-- {
			pixels[j], pixels[j-1] = pixels[j-1], pixels[j]
		}
	}
	got := Condense(pixels)
	if len(got) != len(elems) {
		t.Fatalf("condensed %d elements, want %d: %v vs %v", len(got), len(elems), got, elems)
	}
	for i := range got {
		if got[i] != elems[i] {
			t.Fatalf("condense mismatch at %d: %v != %v", i, got[i], elems[i])
		}
	}
}

func TestCondenseDropsContained(t *testing.T) {
	in := []zorder.Element{
		zorder.MustParseElement("00"),
		zorder.MustParseElement("0010"), // contained in 00
		zorder.MustParseElement("10"),
	}
	got := Condense(in)
	if len(got) != 2 || got[0] != in[0] || got[1] != in[2] {
		t.Errorf("Condense = %v", got)
	}
}

func TestCondenseWholeSpace(t *testing.T) {
	// All four quadrants merge into the whole space.
	in := []zorder.Element{
		zorder.MustParseElement("00"),
		zorder.MustParseElement("01"),
		zorder.MustParseElement("10"),
		zorder.MustParseElement("11"),
	}
	got := Condense(in)
	if len(got) != 1 || got[0] != (zorder.Element{}) {
		t.Errorf("Condense of four quadrants = %v", got)
	}
	if out := Condense(nil); len(out) != 0 {
		t.Errorf("Condense(nil) = %v", out)
	}
}

func TestPixelCountWholeSpace(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	if PixelCount(g, []zorder.Element{{}}) != 64 {
		t.Errorf("whole-space pixel count wrong")
	}
}

// TestFigure2ExactElements pins the exact element set of Figure 2:
// the decomposition of the box 1<=X<=3, 0<=Y<=4 on an 8x8 grid is
// {00001, 00011, 001, 010010, 011000, 011010}.
func TestFigure2ExactElements(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	elems := Box(g, geom.Box2(1, 3, 0, 4))
	want := []string{"00001", "00011", "001", "010010", "011000", "011010"}
	if len(elems) != len(want) {
		t.Fatalf("got %d elements %v, want %v", len(elems), elems, want)
	}
	for i, w := range want {
		if elems[i].String() != w {
			t.Errorf("element %d = %v, want %s", i, elems[i], w)
		}
	}
}

// TestDecomposeQuickBoxes uses testing/quick to fuzz box bounds: the
// decomposition must always be sorted, disjoint, maximal and cover
// exactly the box's volume.
func TestDecomposeQuickBoxes(t *testing.T) {
	g := zorder.MustGrid(2, 5)
	side := uint32(g.Side())
	f := func(x1, x2, y1, y2 uint32) bool {
		x1, x2, y1, y2 = x1%side, x2%side, y1%side, y2%side
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		b := geom.Box2(x1, x2, y1, y2)
		elems := Box(g, b)
		for i := 1; i < len(elems); i++ {
			if elems[i-1].Compare(elems[i]) >= 0 || !elems[i-1].Disjoint(elems[i]) {
				return false
			}
		}
		return PixelCount(g, elems) == b.Volume()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestExpandBoundaryQuick fuzzes the boundary-expansion contract.
func TestExpandBoundaryQuick(t *testing.T) {
	f := func(u uint32, m uint8) bool {
		mm := int(m % 30)
		got := ExpandBoundary(u, mm)
		if got < uint64(u) {
			return false
		}
		if mm > 0 && got%(1<<uint(mm)) != 0 {
			return false
		}
		return got-uint64(u) < 1<<uint(max(mm, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
