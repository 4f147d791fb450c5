package zorder

import "fmt"

// Shuffle computes the full-resolution z value of a pixel by
// interleaving the bits of its coordinates, starting with dimension 0
// (x first, as in Figure 2 of the paper). The result is a pixel
// element of length TotalBits.
//
// Bit j of the z value (j = 0 is the first bit) belongs to the
// dimension split at depth j and carries that coordinate's
// next-most-significant unconsumed bit. A symmetric 2-d grid
// interleaves by word operations (interleave2); every other grid runs
// the splits round by round: round r takes, in dimension order, bit r
// (from the top) of each coordinate that has one.
func (g Grid) Shuffle(coords []uint32) Element {
	if !g.Valid(coords) {
		panic(fmt.Sprintf("zorder: coordinates %v invalid for %v", coords, g))
	}
	var z uint64 // the interleaved bits, right-justified
	if g.k == 2 && g.d != 0 {
		z = interleave2(coords[0])<<1 | interleave2(coords[1])
	} else {
		for r, n := 0, 0; n < g.total; r++ {
			for i, c := range coords {
				if b := g.BitsOf(i); r < b {
					z = z<<1 | uint64(c>>uint(b-1-r)&1)
					n++
				}
			}
		}
	}
	return Element{Bits: z << uint(64-g.total), Len: uint8(g.total)}
}

// ShuffleKey is Shuffle returning only the uint64 key (the
// left-justified z value), the form stored in B+-tree entries.
func (g Grid) ShuffleKey(coords []uint32) uint64 { return g.Shuffle(coords).Bits }

// interleave2 spreads the low 32 bits of v so that bit i moves to bit
// 2i (the classic Morton spreading by magic masks).
func interleave2(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact2 is the inverse of interleave2.
func compact2(x uint64) uint32 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// Unshuffle recovers the pixel coordinates from a full-resolution z
// value. It is the inverse of Shuffle.
func (g Grid) Unshuffle(e Element) []uint32 {
	coords := make([]uint32, g.k)
	g.UnshuffleInto(e, coords)
	return coords
}

// UnshuffleInto is Unshuffle writing into a caller-provided slice to
// avoid allocation on hot paths. It undoes Shuffle's two kernels.
func (g Grid) UnshuffleInto(e Element, coords []uint32) {
	if int(e.Len) != g.total {
		panic(fmt.Sprintf("zorder: unshuffle of %d-bit element on %v", e.Len, g))
	}
	if len(coords) != g.k {
		panic("zorder: UnshuffleInto slice has wrong length")
	}
	if g.k == 2 && g.d != 0 {
		z := e.Bits >> uint(64-g.total)
		coords[0], coords[1] = compact2(z>>1), compact2(z)
		return
	}
	for i := range coords {
		coords[i] = 0
	}
	z := e.Bits // the next bit is bit 63
	for r, n := 0, 0; n < g.total; r++ {
		for i := range coords {
			if b := g.BitsOf(i); r < b {
				coords[i] |= uint32(z>>63) << uint(b-1-r)
				z <<= 1
				n++
			}
		}
	}
}

// UnshuffleKey recovers coordinates from a uint64 z key.
func (g Grid) UnshuffleKey(z uint64) []uint32 {
	return g.Unshuffle(Element{Bits: z, Len: uint8(g.total)})
}

// Rank returns the position of a pixel along the z curve as an
// ordinary integer: the interleaved bits right-justified. This matches
// Figure 4 of the paper ([3, 5] -> 011011 = 27 on an 8x8 grid).
func (g Grid) Rank(coords []uint32) uint64 {
	e := g.Shuffle(coords)
	if g.total == 64 {
		return e.Bits
	}
	return e.Bits >> uint(64-g.total)
}

// Region returns, for each dimension, the inclusive coordinate range
// [lo, hi] covered by the element: the element's bits give an m_i-bit
// prefix of each coordinate i, and the region spans all completions of
// those prefixes (Section 3.1).
func (g Grid) Region(e Element) (lo, hi []uint32) {
	lo = make([]uint32, g.k)
	hi = make([]uint32, g.k)
	g.RegionInto(e, lo, hi)
	return lo, hi
}

// RegionInto is Region writing into caller-provided slices.
func (g Grid) RegionInto(e Element, lo, hi []uint32) {
	if int(e.Len) > g.total {
		panic("zorder: element longer than grid resolution")
	}
	for i := range lo {
		lo[i] = 0
	}
	var seq splitSequence
	seq.init(g)
	var m [MaxBits]uint8 // bits consumed per dimension
	for j := 0; j < int(e.Len); j++ {
		dim := seq.next()
		if e.Bits>>uint(63-j)&1 != 0 {
			lo[dim] |= 1 << uint(g.BitsOf(dim)-1-int(m[dim]))
		}
		m[dim]++
	}
	for dim := 0; dim < g.k; dim++ {
		free := uint(g.BitsOf(dim) - int(m[dim]))
		hi[dim] = lo[dim] | (1<<free - 1)
	}
}

// ElementForRegion computes the z value for a region given, for each
// dimension, the common prefix length m[i] and the coordinate prefix
// carried in lo. It is the `shuffle` operator of the element object
// class (Section 4) generalized from pixels to regions. The region
// must be one obtainable by recursive splitting: the per-dimension
// prefix lengths must match the split sequence's first sum(m) steps.
func (g Grid) ElementForRegion(lo []uint32, m []int) (Element, error) {
	if len(lo) != g.k || len(m) != g.k {
		return Element{}, fmt.Errorf("zorder: region arity mismatch")
	}
	totalPrefix := 0
	for i, mi := range m {
		if mi < 0 || mi > g.BitsOf(i) {
			return Element{}, fmt.Errorf("zorder: prefix length %d out of [0,%d]", mi, g.BitsOf(i))
		}
		totalPrefix += mi
	}
	// The prefix lengths must be exactly what the split sequence
	// produces after totalPrefix splits.
	var seq splitSequence
	seq.init(g)
	var want [MaxBits]uint8
	for j := 0; j < totalPrefix; j++ {
		want[seq.next()]++
	}
	for dim, mi := range m {
		if mi != int(want[dim]) {
			return Element{}, fmt.Errorf("zorder: region with prefix lengths %v is not a splitting region", m)
		}
	}
	var bits uint64
	seq.init(g)
	var used [MaxBits]uint8
	for j := 0; j < totalPrefix; j++ {
		dim := seq.next()
		bit := g.BitsOf(dim) - 1 - int(used[dim])
		used[dim]++
		if lo[dim]>>uint(bit)&1 != 0 {
			bits |= 1 << uint(63-j)
		}
	}
	return Element{Bits: bits, Len: uint8(totalPrefix)}, nil
}
