//go:build !race

package zorder

import "testing"

// TestAllocGateBigMin: the skip computations of the range merge run
// once per step of the scan and must not allocate. Exact counts, so
// the file is left out of -race builds; CI runs `-run TestAllocGate`
// as its own step.
func TestAllocGateBigMin(t *testing.T) {
	for _, g := range []Grid{MustGrid(2, 16), MustGrid(3, 10), MustGridAsym(5, 9, 12, 3)} {
		lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims())
		for i := range lo {
			lo[i], hi[i] = uint32(g.SideOf(i)/4), uint32(g.SideOf(i)/2)
		}
		z := g.ShuffleKey(lo) / 3
		found := 0
		allocs := testing.AllocsPerRun(200, func() {
			z += 0x9E3779B97F4A7C15
			if _, ok := g.BigMin(z, lo, hi); ok {
				found++
			}
			if g.InBox(z, lo, hi) {
				found++
			}
		})
		if allocs != 0 {
			t.Errorf("%v: BigMin+InBox cost %v allocs, want 0", g, allocs)
		}
		if found == 0 {
			t.Errorf("%v: no call ever found a pixel", g)
		}
	}
}

// TestAllocGateShuffle: every stored key is a Shuffle and every result
// row an UnshuffleInto, on both kernels; neither may allocate.
func TestAllocGateShuffle(t *testing.T) {
	for _, g := range []Grid{MustGrid(2, 12), MustGrid(3, 10), MustGridAsym(5, 9, 12, 3)} {
		coords, lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims()), make([]uint32, g.Dims())
		for i := range hi {
			hi[i] = uint32(g.SideOf(i) - 1)
			coords[i] = hi[i] / 3
		}
		e := g.Shuffle(coords)
		var sink uint64
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"Shuffle", func() { sink += g.Shuffle(coords).Bits }},
			{"ShuffleKey", func() { sink += g.ShuffleKey(coords) }},
			{"UnshuffleInto", func() { g.UnshuffleInto(e, coords) }},
			{"InBox", func() {
				if g.InBox(e.Bits, lo, hi) {
					sink++
				}
			}},
		} {
			if allocs := testing.AllocsPerRun(200, c.f); allocs != 0 {
				t.Errorf("%v: %s costs %v allocs, want 0", g, c.name, allocs)
			}
		}
	}
}
