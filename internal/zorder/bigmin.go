package zorder

import "math/bits"

// This file implements the "random access" optimization of the range
// search merge (Section 3.3): when the current point's z value falls
// outside the query box, BigMin finds the next z value that could
// possibly be inside, so the merge can skip parts of the space that
// cannot contribute to the result. Element then names the box's
// element around that pixel, so a box's elements are found on demand
// without descending the splitting tree.
//
// Both are bit arithmetic on the box's shuffled corners: a
// dimension's coordinate bits keep their order inside a key, so the
// key restricted to the dimension's bits (its mask) compares as the
// coordinate does.

// BoxKeys is a box [lo, hi] (inclusive per dimension) prepared for
// BigMin and Element: the grid's split order, a key mask per
// dimension and the shuffled corners. It is built once per search and
// holds no pointer, so it lives on its caller's stack or by value in a
// recycled structure.
type BoxKeys struct {
	lo, hi uint64 // the shuffled corners: the box's least and greatest keys
	k      int
	empty  bool
	order  [MaxBits]uint8  // the dimension split at each depth
	mask   [MaxBits]uint64 // the key bits of each dimension
}

// BoxKeys prepares the box [lo, hi]. A bound past the grid's edge is
// clipped to it; a box with lo above hi in some dimension, after the
// clip, is empty.
func (g Grid) BoxKeys(lo, hi []uint32) BoxKeys {
	var b BoxKeys
	b.Reset(g, lo, hi)
	return b
}

// Reset prepares b in place for the box [lo, hi] of grid g, as BoxKeys
// does, writing only the fields the grid's dimensions use: a BoxKeys
// that lives by value in a recycled structure is re-aimed without a
// copy of the whole value.
func (b *BoxKeys) Reset(g Grid, lo, hi []uint32) {
	if len(lo) != g.k || len(hi) != g.k {
		panic("zorder: BigMin box arity mismatch")
	}
	b.lo, b.hi, b.k, b.empty, b.order = 0, 0, g.k, false, g.SplitOrder()
	clear(b.mask[:g.k])
	var left [MaxBits]uint8 // bits of each coordinate not yet placed
	var top [MaxBits]uint32
	for i := range lo {
		left[i] = uint8(g.BitsOf(i))
		top[i] = uint32(min(uint64(hi[i]), g.SideOf(i)-1))
		b.empty = b.empty || lo[i] > top[i]
	}
	for j := 0; j < g.total; j++ {
		i, at := b.order[j], uint(63-j)
		left[i]--
		b.mask[i] |= 1 << at
		b.lo |= uint64(lo[i]>>uint(left[i])&1) << at
		b.hi |= uint64(top[i]>>uint(left[i])&1) << at
	}
}

// BigMin returns the smallest full-resolution z key >= z whose pixel
// lies inside the box, or ok == false when there is none. It is Tropf
// and Herzog's loop (1981), visiting only the bits at which z and the
// corners do not all agree: an in-box z is its own answer. A z with
// bits below the key width rounds up to the next key, as the corners
// are 0 there.
func (b *BoxKeys) BigMin(z uint64) (uint64, bool) {
	if b.empty {
		return 0, false
	}
	lo, hi := b.lo, b.hi
	var cand uint64 // the least in-box key past z's half so far; never 0
	for rest := ^uint64(0); ; {
		diff := ((z ^ lo) | (z ^ hi)) & rest
		if diff == 0 {
			return z, true
		}
		j := bits.LeadingZeros64(diff) // the split, and the dimension, of the bit
		bit := uint64(1) << uint(63-j)
		below := b.mask[b.order[j]] & (bit - 1)
		switch {
		case z&bit == 0 && lo&bit != 0: // z is below the box here
			return lo, true
		case z&bit != 0 && hi&bit == 0: // z is above the box here
			return cand, cand != 0
		case z&bit == 0: // the box splits here; z is in its lower half
			cand = lo&^below | bit
			hi = hi&^bit | below
		default: // the box splits here; z is in its upper half
			lo = lo&^below | bit
		}
		rest = bit - 1
	}
}

// Element returns the box's element that holds the in-box pixel z: its
// shortest prefix whose every pixel lies in the box. In dimension i the
// prefix may leave free the low bits that lo_i has all zero or that sit
// below the highest bit where z_i and lo_i differ, and likewise the low
// bits that hi_i has all one or that sit below the highest bit where z_i
// and hi_i differ; the prefix is the shortest that fixes the rest.
func (b *BoxKeys) Element(z uint64) Element {
	n := 0
	for i := 0; i < b.k; i++ {
		m := b.mask[i]
		nlo := min(64-bits.TrailingZeros64(b.lo&m), 65-bits.Len64((z^b.lo)&m))
		nhi := min(64-bits.TrailingZeros64(^b.hi&m), 65-bits.Len64((z^b.hi)&m))
		n = max(n, nlo, nhi)
	}
	return Element{Bits: z & mask(uint8(n)), Len: uint8(n)}
}

// BigMin returns the smallest full-resolution z key >= z whose pixel
// lies inside the box [lo, hi] (inclusive per dimension). ok is false
// when no such pixel exists. BigMin(0, lo, hi) yields the first z
// value inside the box. A caller seeking the same box repeatedly
// prepares it once with BoxKeys.
func (g Grid) BigMin(z uint64, lo, hi []uint32) (uint64, bool) {
	b := g.BoxKeys(lo, hi)
	return b.BigMin(z)
}

// InBox reports whether the pixel with the given full-resolution z key
// lies inside the box [lo, hi].
func (g Grid) InBox(z uint64, lo, hi []uint32) bool {
	var buf [MaxBits]uint32
	coords := buf[:g.Dims()]
	g.UnshuffleInto(Element{Bits: z, Len: uint8(g.total)}, coords)
	for i := range coords {
		if coords[i] < lo[i] || coords[i] > hi[i] {
			return false
		}
	}
	return true
}
