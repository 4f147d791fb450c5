package zorder

import "testing"

// Native fuzz targets. `go test` runs the seed corpus as regular
// tests; `go test -fuzz=FuzzShuffleRoundTrip ./internal/zorder` digs
// deeper.

func FuzzShuffleRoundTrip(f *testing.F) {
	f.Add(uint32(3), uint32(5), uint32(0), uint32(0), uint8(1), uint8(2))
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint8(0), uint8(0))
	f.Add(uint32(1<<31), uint32(7), uint32(9), uint32(1), uint8(3), uint8(31))
	f.Fuzz(func(t *testing.T, x, y, z, w uint32, kRaw, dRaw uint8) {
		k := int(kRaw%4) + 1
		d := int(dRaw)%min(32, MaxBits/k) + 1
		g := MustGrid(k, d)
		coords := []uint32{x, y, z, w}[:k]
		for i := range coords {
			coords[i] = uint32(uint64(coords[i]) % g.Side())
		}
		checkAgainstRef(t, g, coords)
	})
}

func FuzzBigMinInvariants(f *testing.F) {
	f.Add(uint32(1), uint32(3), uint32(0), uint32(4), uint64(0))
	f.Add(uint32(0), uint32(7), uint32(0), uint32(7), uint64(1)<<60)
	f.Fuzz(func(t *testing.T, x1, x2, y1, y2 uint32, z uint64) {
		g := MustGrid(2, 4)
		side := uint32(g.Side())
		x1, x2, y1, y2 = x1%side, x2%side, y1%side, y2%side
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		if y1 > y2 {
			y1, y2 = y2, y1
		}
		lo := []uint32{x1, y1}
		hi := []uint32{x2, y2}
		z = z >> uint(64-g.TotalBits()) << uint(64-g.TotalBits())
		got, ok := g.BigMin(z, lo, hi)
		want, wok := bruteBigMin(g, z, lo, hi)
		if ok != wok || (ok && got != want) {
			t.Fatalf("BigMin(%x, %v, %v) = (%x,%v), want (%x,%v)", z, lo, hi, got, ok, want, wok)
		}
		if ok {
			if got < z {
				t.Fatalf("BigMin went backwards")
			}
			if !g.InBox(got, lo, hi) {
				t.Fatalf("BigMin result outside box")
			}
		}
	})
}

// FuzzZOrderJoinInvariants checks the properties the spatial join's
// sequence merge and z-prefix partitioner build on: Compare agrees
// with the [MinZ, MaxZ] interval view of elements, and containment is
// exactly interval nesting.
func FuzzZOrderJoinInvariants(f *testing.F) {
	f.Add(uint64(0b001), uint8(3), uint64(0b0011), uint8(4))
	f.Add(uint64(0), uint8(0), uint64(0xffff), uint8(16))
	f.Fuzz(func(t *testing.T, av uint64, an uint8, bv uint64, bn uint8) {
		a := NewElement(av&(1<<uint(an%17)-1), int(an%17))
		b := NewElement(bv&(1<<uint(bn%17)-1), int(bn%17))
		if a.MinZ() > a.MaxZ(MaxBits) {
			t.Fatalf("%v: MinZ > MaxZ", a)
		}
		// Sorting by Compare never decreases MinZ: the merge consumes
		// items in nondecreasing MinZ order.
		if a.Compare(b) <= 0 && a.MinZ() > b.MinZ() {
			t.Fatalf("%v <= %v but MinZ %x > %x", a, b, a.MinZ(), b.MinZ())
		}
		// Containment == interval nesting; disjoint == interval
		// disjointness (partial interval overlap cannot occur, §3.2).
		nested := a.MinZ() <= b.MinZ() && b.MaxZ(MaxBits) <= a.MaxZ(MaxBits)
		if a.Contains(b) != nested {
			t.Fatalf("Contains(%v, %v) = %v but interval nesting = %v", a, b, a.Contains(b), nested)
		}
		intervalsDisjoint := a.MaxZ(MaxBits) < b.MinZ() || b.MaxZ(MaxBits) < a.MinZ()
		if a.Disjoint(b) != intervalsDisjoint {
			t.Fatalf("Disjoint(%v, %v) = %v but intervals disjoint = %v",
				a, b, a.Disjoint(b), intervalsDisjoint)
		}
	})
}

func FuzzElementContainsCompare(f *testing.F) {
	f.Add(uint64(0b001), uint8(3), uint64(0b0011), uint8(4))
	f.Fuzz(func(t *testing.T, av uint64, an uint8, bv uint64, bn uint8) {
		a := NewElement(av&(1<<uint(an%17)-1), int(an%17))
		b := NewElement(bv&(1<<uint(bn%17)-1), int(bn%17))
		// Containment implies non-positive comparison.
		if a.Contains(b) && a.Compare(b) > 0 {
			t.Fatalf("container %v sorts after contained %v", a, b)
		}
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare not antisymmetric")
		}
		// Disjoint == neither contains.
		if a.Disjoint(b) == (a.Contains(b) || b.Contains(a)) {
			t.Fatalf("Disjoint inconsistent for %v, %v", a, b)
		}
	})
}
