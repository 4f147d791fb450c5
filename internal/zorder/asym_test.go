package zorder

import (
	"math/rand"
	"testing"
)

func TestNewGridAsymValidation(t *testing.T) {
	if _, err := NewGridAsym(nil); err == nil {
		t.Errorf("empty bits accepted")
	}
	if _, err := NewGridAsym([]int{3, 0}); err == nil {
		t.Errorf("zero resolution accepted")
	}
	if _, err := NewGridAsym([]int{3, 33}); err == nil {
		t.Errorf("oversized resolution accepted")
	}
	if _, err := NewGridAsym([]int{32, 32, 32}); err == nil {
		t.Errorf("total > 64 accepted")
	}
	many := make([]int, 17)
	for i := range many {
		many[i] = 1
	}
	if _, err := NewGridAsym(many); err == nil {
		t.Errorf("17 dimensions accepted")
	}
	// Equal resolutions normalize to a symmetric grid.
	g, err := NewGridAsym([]int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g != MustGrid(2, 4) {
		t.Errorf("equal-bit asymmetric grid should equal symmetric grid")
	}
	if !g.Symmetric() {
		t.Errorf("normalized grid should report symmetric")
	}
}

func TestAsymGridAccessors(t *testing.T) {
	g := MustGridAsym(3, 5)
	if g.Symmetric() {
		t.Errorf("asymmetric grid reports symmetric")
	}
	if g.Dims() != 2 || g.TotalBits() != 8 {
		t.Errorf("accessors wrong: %v", g)
	}
	if g.BitsOf(0) != 3 || g.BitsOf(1) != 5 {
		t.Errorf("BitsOf wrong")
	}
	if g.SideOf(0) != 8 || g.SideOf(1) != 32 {
		t.Errorf("SideOf wrong")
	}
	if g.Cells() != 256 {
		t.Errorf("Cells = %d", g.Cells())
	}
	if !g.Valid([]uint32{7, 31}) || g.Valid([]uint32{8, 0}) || g.Valid([]uint32{0, 32}) {
		t.Errorf("Valid wrong")
	}
	if g.String() == "" {
		t.Errorf("String empty")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Side on asymmetric grid should panic")
		}
	}()
	g.Side()
}

func TestAsymBitsPerDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("BitsPerDim on asymmetric grid should panic")
		}
	}()
	MustGridAsym(3, 5).BitsPerDim()
}

// TestAsymSplitOrder: splits cycle the dimensions and skip exhausted
// ones: for bits (2, 4) the order is x y x y y y.
func TestAsymSplitOrder(t *testing.T) {
	g := MustGridAsym(2, 4)
	want := []int{0, 1, 0, 1, 1, 1}
	order := g.SplitOrder()
	for j, w := range want {
		if int(order[j]) != w {
			t.Errorf("split %d = %d, want %d", j, order[j], w)
		}
		if g.SplitDim(j) != w {
			t.Errorf("SplitDim(%d) = %d, want %d", j, g.SplitDim(j), w)
		}
	}
}

func TestAsymShuffleRoundTrip(t *testing.T) {
	grids := []Grid{
		MustGridAsym(3, 5),
		MustGridAsym(1, 7),
		MustGridAsym(10, 2, 4),
		MustGridAsym(32, 16),
		MustGridAsym(2, 2, 2, 30),
	}
	rng := rand.New(rand.NewSource(101))
	for _, g := range grids {
		for trial := 0; trial < 300; trial++ {
			coords := make([]uint32, g.Dims())
			for d := range coords {
				coords[d] = uint32(rng.Uint64() % g.SideOf(d))
			}
			e := g.Shuffle(coords)
			if int(e.Len) != g.TotalBits() {
				t.Fatalf("%v: length %d", g, e.Len)
			}
			back := g.Unshuffle(e)
			for d := range coords {
				if back[d] != coords[d] {
					t.Fatalf("%v: round trip %v -> %v", g, coords, back)
				}
			}
		}
	}
}

// TestAsymZOrderIsSorted: increasing a coordinate increases the z key
// (monotonicity along axes holds on asymmetric grids too).
func TestAsymZOrderMonotone(t *testing.T) {
	g := MustGridAsym(3, 6)
	for y := uint32(0); y < 64; y += 5 {
		var prev uint64
		for x := uint32(0); x < 8; x++ {
			z := g.ShuffleKey([]uint32{x, y})
			if x > 0 && z <= prev {
				t.Fatalf("z not monotone in x at (%d,%d)", x, y)
			}
			prev = z
		}
	}
}

// TestAsymRegionConsistency: a pixel is inside an element's region
// iff the element contains its z value.
func TestAsymRegionConsistency(t *testing.T) {
	g := MustGridAsym(3, 5)
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(g.TotalBits() + 1)
		e := NewElement(rng.Uint64()&(1<<uint(n)-1), n)
		lo, hi := g.Region(e)
		for x := uint32(0); x < 8; x++ {
			for y := uint32(0); y < 32; y++ {
				inRegion := x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1]
				contained := e.Contains(g.Shuffle([]uint32{x, y}))
				if inRegion != contained {
					t.Fatalf("element %v: pixel (%d,%d) region=%v contains=%v",
						e, x, y, inRegion, contained)
				}
			}
		}
	}
}

// TestAsymBigMinBruteForce: the skip primitive stays exact on
// asymmetric grids.
func TestAsymBigMinBruteForce(t *testing.T) {
	g := MustGridAsym(3, 5)
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 300; trial++ {
		lo := make([]uint32, 2)
		hi := make([]uint32, 2)
		for d := range lo {
			a := uint32(rng.Uint64() % g.SideOf(d))
			b := uint32(rng.Uint64() % g.SideOf(d))
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		z := rng.Uint64() >> uint(64-g.TotalBits()) << uint(64-g.TotalBits())
		got, gok := g.BigMin(z, lo, hi)
		want, wok := bruteBigMin(g, z, lo, hi)
		if gok != wok || (gok && got != want) {
			t.Fatalf("BigMin(%x,%v,%v) = (%x,%v), want (%x,%v)", z, lo, hi, got, gok, want, wok)
		}
	}
}

func TestAsymElementForRegionRoundTrip(t *testing.T) {
	g := MustGridAsym(2, 4)
	order := g.SplitOrder()
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(g.TotalBits() + 1)
		e := NewElement(rng.Uint64()&(1<<uint(n)-1), n)
		lo, _ := g.Region(e)
		m := make([]int, g.Dims())
		for j := 0; j < n; j++ {
			m[order[j]]++
		}
		got, err := g.ElementForRegion(lo, m)
		if err != nil {
			t.Fatalf("ElementForRegion: %v", err)
		}
		if got != e {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
	// Unbalanced prefixes are rejected.
	if _, err := g.ElementForRegion([]uint32{0, 0}, []int{0, 1}); err == nil {
		t.Errorf("non-splitting region accepted")
	}
}
