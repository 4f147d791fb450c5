package zorder

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestFigure4Rank checks the worked example of Figure 4:
// [3, 5] -> (011, 101) -> 011011 = 27 on an 8x8 grid.
func TestFigure4Rank(t *testing.T) {
	g := MustGrid(2, 3)
	if got := g.Rank([]uint32{3, 5}); got != 27 {
		t.Errorf("Rank([3,5]) = %d, want 27", got)
	}
	// Interleaving starts with x: [1,0] -> 10 -> 2, [0,1] -> 01 -> 1.
	g1 := MustGrid(2, 1)
	if g1.Rank([]uint32{1, 0}) != 2 || g1.Rank([]uint32{0, 1}) != 1 {
		t.Errorf("interleaving does not start with x")
	}
}

// TestZCurveShape verifies the recursive N shape of Figure 4: the four
// pixels of rank 0..3 on a 2-bit grid are (0,0),(0,1),(1,0),(1,1) —
// i.e. the curve visits the lower-left quadrant's N before moving on.
func TestZCurveShape(t *testing.T) {
	g := MustGrid(2, 2)
	wantOrder := [][2]uint32{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, // lower-left 2x2 block
		{0, 2}, {0, 3}, {1, 2}, {1, 3}, // upper-left
		{2, 0}, {2, 1}, {3, 0}, {3, 1}, // lower-right
		{2, 2}, {2, 3}, {3, 2}, {3, 3}, // upper-right
	}
	for rank, p := range wantOrder {
		if got := g.Rank([]uint32{p[0], p[1]}); got != uint64(rank) {
			t.Errorf("Rank(%v) = %d, want %d", p, got, rank)
		}
	}
}

func TestShuffleUnshuffleRoundTrip(t *testing.T) {
	grids := []Grid{MustGrid(1, 8), MustGrid(2, 3), MustGrid(2, 16), MustGrid(3, 7), MustGrid(4, 10), MustGrid(2, 32), MustGrid(1, 32)}
	rng := rand.New(rand.NewSource(2))
	for _, g := range grids {
		for i := 0; i < 200; i++ {
			coords := make([]uint32, g.Dims())
			for j := range coords {
				coords[j] = uint32(rng.Uint64() % g.Side())
			}
			e := g.Shuffle(coords)
			if int(e.Len) != g.TotalBits() {
				t.Fatalf("%v: shuffle length %d", g, e.Len)
			}
			back := g.Unshuffle(e)
			for j := range coords {
				if back[j] != coords[j] {
					t.Fatalf("%v: round trip %v -> %v", g, coords, back)
				}
			}
			if g.ShuffleKey(coords) != e.Bits {
				t.Fatalf("ShuffleKey mismatch")
			}
			back2 := g.UnshuffleKey(e.Bits)
			for j := range coords {
				if back2[j] != coords[j] {
					t.Fatalf("UnshuffleKey mismatch")
				}
			}
		}
	}
}

// refSplits lists the dimension split at each depth the way the
// paper states it: cycle through the dimensions from 0, skipping the
// exhausted ones.
func refSplits(g Grid) []int {
	var left [MaxAsymDims]int
	for i := 0; i < g.Dims(); i++ {
		left[i] = g.BitsOf(i)
	}
	var dims []int
	for c := 0; len(dims) < g.TotalBits(); c++ {
		if dim := c % g.Dims(); left[dim] > 0 {
			left[dim]--
			dims = append(dims, dim)
		}
	}
	return dims
}

// refShuffle is the bit-at-a-time interleaving Shuffle's kernels must
// reproduce bit for bit: bit j of the z value carries the
// next-most-significant unconsumed bit of the dimension split at
// depth j.
func refShuffle(g Grid, coords []uint32) Element {
	var used [MaxAsymDims]int
	var bits uint64
	for j, dim := range refSplits(g) {
		bit := g.BitsOf(dim) - 1 - used[dim]
		used[dim]++
		if coords[dim]>>uint(bit)&1 != 0 {
			bits |= 1 << uint(63-j)
		}
	}
	return Element{Bits: bits, Len: uint8(g.TotalBits())}
}

// refUnshuffle is the bit-at-a-time inverse of refShuffle.
func refUnshuffle(g Grid, e Element) []uint32 {
	var used [MaxAsymDims]int
	coords := make([]uint32, g.Dims())
	for j, dim := range refSplits(g) {
		bit := g.BitsOf(dim) - 1 - used[dim]
		used[dim]++
		if e.Bits>>uint(63-j)&1 != 0 {
			coords[dim] |= 1 << uint(bit)
		}
	}
	return coords
}

// checkAgainstRef compares Shuffle and UnshuffleInto with the
// reference loops at one pixel.
func checkAgainstRef(t *testing.T, g Grid, coords []uint32) {
	t.Helper()
	e := g.Shuffle(coords)
	if want := refShuffle(g, coords); e != want {
		t.Fatalf("%v: Shuffle(%v) = %v, reference %v", g, coords, e, want)
	}
	back := make([]uint32, g.Dims())
	g.UnshuffleInto(e, back)
	if !slices.Equal(back, coords) || !slices.Equal(refUnshuffle(g, e), coords) {
		t.Fatalf("%v: unshuffle of %v = %v, reference %v, want %v", g, e, back, refUnshuffle(g, e), coords)
	}
}

// TestShuffleMatchesReferenceExhaustive runs every pixel of small
// symmetric grids (k = 1..4) and of asymmetric ones through both
// directions, so every z value of each grid is checked too.
func TestShuffleMatchesReferenceExhaustive(t *testing.T) {
	var grids []Grid
	for k := 1; k <= 4; k++ {
		for d := 1; k*d <= 12; d++ {
			grids = append(grids, MustGrid(k, d))
		}
	}
	grids = append(grids, MustGridAsym(3, 5), MustGridAsym(1, 7, 2), MustGridAsym(5, 3))
	for _, g := range grids {
		coords := make([]uint32, g.Dims())
		for rank := uint64(0); rank < g.Cells(); rank++ {
			// Mixed-radix digits of rank enumerate every pixel once.
			r := rank
			for i := range coords {
				coords[i] = uint32(r % g.SideOf(i))
				r /= g.SideOf(i)
			}
			checkAgainstRef(t, g, coords)
		}
	}
}

// TestShuffleMatchesReferenceRandom covers the 2-d grids too large to
// enumerate, up to the full 64-bit z value.
func TestShuffleMatchesReferenceRandom(t *testing.T) {
	for _, d := range []int{16, 31, 32} {
		g := MustGrid(2, d)
		rng := rand.New(rand.NewSource(int64(d)))
		for i := 0; i < 2000; i++ {
			checkAgainstRef(t, g, []uint32{uint32(rng.Uint64() % g.Side()), uint32(rng.Uint64() % g.Side())})
		}
	}
}

func TestInterleaveCompactInverse(t *testing.T) {
	f := func(v uint32) bool { return compact2(interleave2(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMonotoneAlongCurve: z order restricted to a single dimension is
// the usual numeric order (a consequence of bit interleaving).
func TestMonotoneAlongCurve(t *testing.T) {
	g := MustGrid(2, 4)
	var prev uint64
	for x := uint32(0); x < 16; x++ {
		z := g.ShuffleKey([]uint32{x, 5})
		if x > 0 && z <= prev {
			t.Fatalf("z not monotone in x at %d", x)
		}
		prev = z
	}
	for y := uint32(0); y < 16; y++ {
		z := g.ShuffleKey([]uint32{5, y})
		if y > 0 && z <= prev {
			t.Fatalf("z not monotone in y at %d", y)
		}
		prev = z
	}
}

// TestRegionFigure2 checks the region extents of the large element of
// Figure 2: z value 001 covers 2<=X<=3, 0<=Y<=3 on the 8x8 grid.
func TestRegionFigure2(t *testing.T) {
	g := MustGrid(2, 3)
	lo, hi := g.Region(MustParseElement("001"))
	if lo[0] != 2 || hi[0] != 3 || lo[1] != 0 || hi[1] != 3 {
		t.Errorf("Region(001) = [%v %v], want [2..3, 0..3]", lo, hi)
	}
	// The whole space.
	lo, hi = g.Region(Element{})
	if lo[0] != 0 || hi[0] != 7 || lo[1] != 0 || hi[1] != 7 {
		t.Errorf("Region(ε) wrong: [%v %v]", lo, hi)
	}
	// A pixel.
	lo, hi = g.Region(g.Shuffle([]uint32{6, 1}))
	if lo[0] != 6 || hi[0] != 6 || lo[1] != 1 || hi[1] != 1 {
		t.Errorf("pixel region wrong: [%v %v]", lo, hi)
	}
}

// TestRegionCoversExactlyContainedPixels: a pixel is inside an
// element's region iff the element contains the pixel's z value.
func TestRegionCoversExactlyContainedPixels(t *testing.T) {
	g := MustGrid(2, 3)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(g.TotalBits() + 1)
		e := NewElement(rng.Uint64()&(1<<uint(n)-1), n)
		lo, hi := g.Region(e)
		for x := uint32(0); x < 8; x++ {
			for y := uint32(0); y < 8; y++ {
				inRegion := x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1]
				contained := e.Contains(g.Shuffle([]uint32{x, y}))
				if inRegion != contained {
					t.Fatalf("element %v: pixel (%d,%d) region=%v contains=%v", e, x, y, inRegion, contained)
				}
			}
		}
	}
}

// TestElementForRegionRoundTrip: Region and ElementForRegion are
// inverses on elements (the shuffle/unshuffle pair of Section 4).
func TestElementForRegionRoundTrip(t *testing.T) {
	g := MustGrid(2, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(g.TotalBits() + 1)
		e := NewElement(rng.Uint64()&(1<<uint(n)-1), n)
		lo, _ := g.Region(e)
		m := make([]int, g.Dims())
		q, r := n/g.Dims(), n%g.Dims()
		for dim := range m {
			m[dim] = q
			if dim < r {
				m[dim] = q + 1
			}
		}
		got, err := g.ElementForRegion(lo, m)
		if err != nil {
			t.Fatalf("ElementForRegion(%v,%v): %v", lo, m, err)
		}
		if got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
}

func TestElementForRegionRejectsUnbalanced(t *testing.T) {
	g := MustGrid(2, 3)
	if _, err := g.ElementForRegion([]uint32{0, 0}, []int{0, 2}); err == nil {
		t.Errorf("unbalanced prefix lengths should be rejected")
	}
	if _, err := g.ElementForRegion([]uint32{0, 0}, []int{4, 0}); err == nil {
		t.Errorf("prefix longer than d should be rejected")
	}
	if _, err := g.ElementForRegion([]uint32{0}, []int{1}); err == nil {
		t.Errorf("arity mismatch should be rejected")
	}
}

// TestFigure2ElementConstruction reproduces the caption of Figure 2:
// the element covering [2:3, 0:3] has z value 001, built by
// interleaving the common prefixes 01 (x) and 0 (y).
func TestFigure2ElementConstruction(t *testing.T) {
	g := MustGrid(2, 3)
	e, err := g.ElementForRegion([]uint32{2, 0}, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if e != MustParseElement("001") {
		t.Errorf("element for [2:3,0:3] = %v, want 001", e)
	}
}

// benchGrids are the grids of the shuffle benchmarks: the benchmark
// harness's 2-d 12-bit grid (the mask kernel), a 3-d grid and an
// asymmetric one (the general loop).
var benchGrids = []struct {
	name string
	g    Grid
}{
	{"2d12", MustGrid(2, 12)},
	{"3d10", MustGrid(3, 10)},
	{"asym5-9-12-3", MustGridAsym(5, 9, 12, 3)},
}

// benchPoints returns 1024 random pixels of g, one flat slice of
// g.Dims() coordinates each.
func benchPoints(g Grid) []uint32 {
	rng := rand.New(rand.NewSource(1))
	pts := make([]uint32, 1024*g.Dims())
	for i := range pts {
		pts[i] = uint32(rng.Uint64() % g.SideOf(i%g.Dims()))
	}
	return pts
}

var benchSink uint64

func BenchmarkShuffle(b *testing.B) {
	for _, bg := range benchGrids {
		g, k := bg.g, bg.g.Dims()
		pts := benchPoints(g)
		b.Run(bg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % 1024 * k
				benchSink += g.Shuffle(pts[j : j+k]).Bits
			}
		})
	}
}

func BenchmarkUnshuffle(b *testing.B) {
	for _, bg := range benchGrids {
		g, k := bg.g, bg.g.Dims()
		pts := benchPoints(g)
		zs := make([]Element, 1024)
		for i := range zs {
			zs[i] = g.Shuffle(pts[i*k : i*k+k])
		}
		coords := make([]uint32, k)
		b.Run(bg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.UnshuffleInto(zs[i%1024], coords)
				benchSink += uint64(coords[0])
			}
		})
	}
}
