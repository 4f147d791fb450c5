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

// FuzzBoxKeysAnyGrid checks BoxKeys on any small grid shape: shape
// picks a symmetric grid of 1 to 4 dimensions or an asymmetric one of
// 2 to 4 dimensions of 1 to 6 bits, at most 16 bits in all; lo and hi
// hold a box corner's coordinates, 16 bits each; z is any key, bits
// below the key width included. BigMin must agree with refBigMin, and
// Element with a pixel-by-pixel search for the shortest prefix of the
// found pixel whose every pixel is in the box.
func FuzzBoxKeysAnyGrid(f *testing.F) {
	// 2x4 (shape 1<<1|3<<3) and (3,5) (shape 1|2<<3|4<<6), whose box
	// (1,2)-(4,9) ends at key 0x91<<56.
	f.Add(uint32(1<<1|3<<3), uint64(0), ^uint64(0), uint64(0))                       // the whole space
	f.Add(uint32(1<<1|3<<3), uint64(0x5_0003), uint64(0x5_0003), uint64(0))          // a single pixel
	f.Add(uint32(1|2<<3|4<<6), uint64(0x2_0001), uint64(0x9_0004), uint64(0x92)<<56) // a z past the box
	f.Add(uint32(1|2<<3|4<<6), uint64(0x2_0001), uint64(0x9_0004), uint64(1))        // a z below the key
	f.Fuzz(func(t *testing.T, shape uint32, loRaw, hiRaw, z uint64) {
		var g Grid
		if shape&1 == 0 {
			k := int(shape>>1%4) + 1
			g = MustGrid(k, int(shape>>3)%(16/k)+1)
		} else {
			k := int(shape>>1%3) + 2
			bits, budget := make([]int, k), 16
			for i := range bits {
				bits[i] = min(int(shape>>(3+3*i)&7)%6+1, budget-(k-1-i))
				budget -= bits[i]
			}
			g = MustGridAsym(bits...)
		}
		lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims())
		for i := range lo {
			lo[i] = uint32(loRaw>>(16*i)&0xffff) % uint32(g.SideOf(i))
			hi[i] = uint32(hiRaw>>(16*i)&0xffff) % uint32(g.SideOf(i))
			if lo[i] > hi[i] {
				lo[i], hi[i] = hi[i], lo[i]
			}
		}
		b := g.BoxKeys(lo, hi)
		got, ok := b.BigMin(z)
		want, wok := refBigMin(g, z, lo, hi)
		if ok != wok || got != want {
			t.Fatalf("%v box %v-%v: BigMin(%x) = (%x,%v), want (%x,%v)", g, lo, hi, z, got, ok, want, wok)
		}
		if ok {
			if e, we := b.Element(got), bruteElement(g, got, lo, hi); e != we {
				t.Fatalf("%v box %v-%v: Element(%x) = %v, want %v", g, lo, hi, got, e, we)
			}
		}
	})
}

// bruteElement is the shortest prefix of the pixel z all of whose
// pixels, tried one by one, lie in the box [lo, hi].
func bruteElement(g Grid, z uint64, lo, hi []uint32) Element {
	total, coords := g.TotalBits(), make([]uint32, g.Dims())
	for n := 0; ; n++ {
		e := Element{Bits: z & mask(uint8(n)), Len: uint8(n)}
		inside := true
		for p := uint64(0); inside && p < 1<<uint(total-n); p++ {
			g.UnshuffleInto(Element{Bits: e.Bits | p<<uint(64-total), Len: uint8(total)}, coords)
			for i := range coords {
				inside = inside && lo[i] <= coords[i] && coords[i] <= hi[i]
			}
		}
		if inside {
			return e
		}
	}
}
