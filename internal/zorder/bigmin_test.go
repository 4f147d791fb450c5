package zorder

import (
	"fmt"
	"math/rand"
	"testing"
)

// refBigMin is the BigMin that BoxKeys replaced, kept as its
// reference: a pruned descent of the implicit binary splitting tree,
// each node an element whose two children are the halves of the next
// split, keeping the node's coordinate region as it goes.
func refBigMin(g Grid, z uint64, lo, hi []uint32) (uint64, bool) {
	s := boxSearch{g: g, z: z, order: g.SplitOrder(), qlo: lo, qhi: hi}
	for i := range lo {
		s.rhi[i] = uint32(g.SideOf(i) - 1)
	}
	return s.bigMin(Element{})
}

// boxSearch carries the state of a refBigMin descent.
type boxSearch struct {
	g        Grid
	z        uint64
	order    [MaxBits]uint8
	qlo, qhi []uint32        // query box, inclusive
	rlo, rhi [MaxBits]uint32 // current node's region, mutated along the descent
}

func (s *boxSearch) disjoint() bool {
	for i := range s.qlo {
		if s.qlo[i] > s.rhi[i] || s.qhi[i] < s.rlo[i] {
			return true
		}
	}
	return false
}

func (s *boxSearch) contained() bool {
	for i := range s.qlo {
		if s.rlo[i] < s.qlo[i] || s.rhi[i] > s.qhi[i] {
			return false
		}
	}
	return true
}

// descend narrows the region to child b of the split at depth and
// returns the previous bound so the caller can restore it.
func (s *boxSearch) descend(depth, b int) (dim int, saved uint32) {
	dim = int(s.order[depth])
	half := (s.rhi[dim]-s.rlo[dim])/2 + 1
	if b == 0 {
		saved = s.rhi[dim]
		s.rhi[dim] = s.rlo[dim] + half - 1
	} else {
		saved = s.rlo[dim]
		s.rlo[dim] += half
	}
	return dim, saved
}

func (s *boxSearch) restore(dim, b int, saved uint32) {
	if b == 0 {
		s.rhi[dim] = saved
	} else {
		s.rlo[dim] = saved
	}
}

// bigMin returns the smallest full-resolution z key >= s.z whose pixel
// lies inside the query box and inside element e, or ok == false.
func (s *boxSearch) bigMin(e Element) (uint64, bool) {
	if e.MaxZ(s.g.TotalBits()) < s.z {
		return 0, false
	}
	if s.disjoint() {
		return 0, false
	}
	if e.MinZ() >= s.z && s.contained() {
		return e.MinZ(), true
	}
	// e cannot be a pixel here: a pixel that survives both pruning
	// tests is contained and has MinZ == MaxZ >= s.z.
	for b := 0; b < 2; b++ {
		dim, saved := s.descend(int(e.Len), b)
		z, ok := s.bigMin(e.Child(b))
		s.restore(dim, b, saved)
		if ok {
			return z, true
		}
	}
	return 0, false
}

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
		a := uint32(rng.Uint64() % g.SideOf(i))
		b := uint32(rng.Uint64() % g.SideOf(i))
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

// regionInside reports whether every pixel of element e lies inside
// the box [lo, hi].
func regionInside(g Grid, e Element, lo, hi []uint32) bool {
	var rlo, rhi [MaxBits]uint32
	g.RegionInto(e, rlo[:g.Dims()], rhi[:g.Dims()])
	for i := range lo {
		if rlo[i] < lo[i] || rhi[i] > hi[i] {
			return false
		}
	}
	return true
}

// checkBoxKeys compares BoxKeys against the references at z: BigMin
// against refBigMin and, on the pixel it finds, Element against the
// definition, the pixel's shortest prefix inside the box (a prefix
// inside the box whose parent is not).
func checkBoxKeys(g Grid, b *BoxKeys, z uint64, lo, hi []uint32) error {
	got, ok := b.BigMin(z)
	want, wok := refBigMin(g, z, lo, hi)
	if ok != wok || got != want {
		return fmt.Errorf("%v box %v-%v: BigMin(%x) = (%x,%v), want (%x,%v)", g, lo, hi, z, got, ok, want, wok)
	}
	if !ok {
		return nil
	}
	e := b.Element(got)
	if !e.Contains(Element{Bits: got, Len: uint8(g.TotalBits())}) || !regionInside(g, e, lo, hi) ||
		e.Len > 0 && regionInside(g, e.Parent(), lo, hi) {
		return fmt.Errorf("%v box %v-%v: Element(%x) = %v is not the pixel's shortest prefix in the box", g, lo, hi, got, e)
	}
	return nil
}

// TestBoxKeysMatchReferenceExhaustive checks the bit arithmetic
// against the recursive descent it replaced: every box and every key
// of small grids, then random cases on large ones, half of them with
// bits below the key width.
func TestBoxKeysMatchReferenceExhaustive(t *testing.T) {
	for _, g := range []Grid{MustGrid(2, 3), MustGrid(2, 4), MustGrid(3, 2),
		MustGridAsym(3, 1), MustGridAsym(1, 3, 2), MustGridAsym(2, 4)} {
		lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims())
		var boxes func(i int)
		boxes = func(i int) {
			if i == g.Dims() {
				b := g.BoxKeys(lo, hi)
				step := uint64(1) << uint(64-g.TotalBits())
				for n := uint64(0); n < g.Cells(); n++ {
					if err := checkBoxKeys(g, &b, n*step, lo, hi); err != nil {
						t.Fatal(err)
					}
				}
				return
			}
			for lo[i] = 0; uint64(lo[i]) < g.SideOf(i); lo[i]++ {
				for hi[i] = lo[i]; uint64(hi[i]) < g.SideOf(i); hi[i]++ {
					boxes(i + 1)
				}
			}
		}
		boxes(0)
	}
	// A bound past the grid's edge is clipped, and lo above hi leaves
	// the box empty, as in the descent.
	rng := rand.New(rand.NewSource(43))
	for _, g := range []Grid{MustGrid(2, 3), MustGridAsym(1, 3, 2)} {
		for trial := 0; trial < 2000; trial++ {
			lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims())
			for i := range lo {
				lo[i], hi[i] = uint32(rng.Uint64()%(2*g.SideOf(i))), uint32(rng.Uint64()%(2*g.SideOf(i)))
			}
			b := g.BoxKeys(lo, hi)
			for n := uint64(0); n < g.Cells(); n++ {
				if err := checkBoxKeys(g, &b, n<<uint(64-g.TotalBits()), lo, hi); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, g := range []Grid{MustGrid(2, 32), MustGrid(2, 12), MustGrid(4, 16),
		MustGridAsym(5, 9, 12, 3), MustGrid(64, 1)} {
		for trial := 0; trial < 20000; trial++ {
			lo, hi := randBox(rng, g)
			b := g.BoxKeys(lo, hi)
			z := rng.Uint64()
			if trial%2 == 0 && g.TotalBits() < 64 {
				z = z >> uint(64-g.TotalBits()) << uint(64-g.TotalBits())
			}
			if err := checkBoxKeys(g, &b, z, lo, hi); err != nil {
				t.Fatal(err)
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
