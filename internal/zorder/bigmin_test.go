package zorder

import (
	"math/rand"
	"testing"
)

// bruteBigMin computes BigMin by scanning every pixel of the grid.
func bruteBigMin(g Grid, z uint64, lo, hi []uint32) (uint64, bool) {
	best := uint64(0)
	found := false
	coords := make([]uint32, g.Dims())
	var walk func(dim int)
	walk = func(dim int) {
		if dim == g.Dims() {
			zz := g.ShuffleKey(coords)
			if zz >= z && (!found || zz < best) {
				best, found = zz, true
			}
			return
		}
		for c := lo[dim]; c <= hi[dim]; c++ {
			coords[dim] = c
			walk(dim + 1)
		}
	}
	walk(0)
	return best, found
}

func randBox(rng *rand.Rand, g Grid) (lo, hi []uint32) {
	lo = make([]uint32, g.Dims())
	hi = make([]uint32, g.Dims())
	for i := range lo {
		a := uint32(rng.Uint64() % g.Side())
		b := uint32(rng.Uint64() % g.Side())
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return lo, hi
}

// TestBigMinAgainstBruteForce is the central correctness property of
// the skip optimization: BigMin must return exactly the smallest
// in-box z value >= z.
func TestBigMinAgainstBruteForce(t *testing.T) {
	for _, g := range []Grid{MustGrid(1, 5), MustGrid(2, 3), MustGrid(3, 2)} {
		rng := rand.New(rand.NewSource(int64(g.Dims())))
		for trial := 0; trial < 400; trial++ {
			lo, hi := randBox(rng, g)
			var z uint64
			if g.TotalBits() < 64 {
				z = rng.Uint64() % (1 << uint(g.TotalBits()))
				z <<= uint(64 - g.TotalBits())
			} else {
				z = rng.Uint64()
			}
			got, gok := g.BigMin(z, lo, hi)
			want, wok := bruteBigMin(g, z, lo, hi)
			if gok != wok || (gok && got != want) {
				t.Fatalf("%v BigMin(%x, %v, %v) = (%x,%v), want (%x,%v)",
					g, z, lo, hi, got, gok, want, wok)
			}
		}
	}
}

func TestBigMinWholeSpace(t *testing.T) {
	g := MustGrid(2, 4)
	lo := []uint32{0, 0}
	hi := []uint32{15, 15}
	// In the whole space every z >= z is a match, so BigMin(z) == z
	// rounded up to a valid key (all keys are valid here).
	z := g.ShuffleKey([]uint32{7, 9})
	got, ok := g.BigMin(z, lo, hi)
	if !ok || got != z {
		t.Errorf("BigMin in whole space should be identity")
	}
}

func TestBigMinExhaustedBox(t *testing.T) {
	g := MustGrid(2, 3)
	lo := []uint32{1, 1}
	hi := []uint32{2, 2}
	// A z beyond the box's last pixel yields no match.
	last := g.ShuffleKey([]uint32{2, 2})
	if _, ok := g.BigMin(last+1, lo, hi); ok {
		t.Errorf("BigMin past the box should fail")
	}
}

func TestBigMinFirstInBox(t *testing.T) {
	g := MustGrid(2, 3)
	// Figure 1's query: 1 <= X <= 3, 0 <= Y <= 4. The z-least pixel is
	// the one whose shuffled value is minimal; check against brute force.
	lo := []uint32{1, 0}
	hi := []uint32{3, 4}
	got, ok := g.BigMin(0, lo, hi)
	want, _ := bruteBigMin(g, 0, lo, hi)
	if !ok || got != want {
		t.Errorf("first-in-box = %x, want %x", got, want)
	}
	if !g.InBox(got, lo, hi) {
		t.Errorf("BigMin result not in box")
	}
}

func TestInBox(t *testing.T) {
	g := MustGrid(2, 3)
	lo := []uint32{1, 0}
	hi := []uint32{3, 4}
	if !g.InBox(g.ShuffleKey([]uint32{3, 4}), lo, hi) {
		t.Errorf("corner should be in box")
	}
	if g.InBox(g.ShuffleKey([]uint32{4, 4}), lo, hi) {
		t.Errorf("outside point reported in box")
	}
}

func TestBigMinPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("BigMin with wrong arity should panic")
		}
	}()
	MustGrid(2, 3).BigMin(0, []uint32{1}, []uint32{2, 3})
}

func BenchmarkBigMin(b *testing.B) {
	g := MustGrid(2, 16)
	lo := []uint32{1000, 2000}
	hi := []uint32{30000, 2500}
	rng := rand.New(rand.NewSource(7))
	zs := make([]uint64, 1024)
	for i := range zs {
		zs[i] = rng.Uint64() >> uint(64-g.TotalBits()) << uint(64-g.TotalBits())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BigMin(zs[i%len(zs)], lo, hi)
	}
}
