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
			if _, ok := g.LitMax(z, lo, hi); ok {
				found++
			}
			if g.InBox(z, lo, hi) {
				found++
			}
		})
		if allocs != 0 {
			t.Errorf("%v: BigMin+LitMax+InBox cost %v allocs, want 0", g, allocs)
		}
		if found == 0 {
			t.Errorf("%v: no call ever found a pixel", g)
		}
	}
}
