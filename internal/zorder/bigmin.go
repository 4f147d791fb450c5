package zorder

// This file implements the "random access" optimization of the range
// search merge (Section 3.3): when the current point's z value falls
// outside the query box, BigMin finds the next z value that could
// possibly be inside, so the merge can skip parts of the space that
// cannot contribute to the result.
//
// It is implemented as a pruned descent of the implicit binary
// splitting tree: each tree node is an element, its two children are
// the halves produced by the next split. The descent maintains the
// node's coordinate region incrementally, so one call costs O(k*d)
// amortized per level visited.

// boxSearch carries the state of a BigMin descent. It is
// fixed-size (a grid has at most MaxBits dimensions), so a search
// lives on its caller's stack and allocates nothing.
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

func newBoxSearch(g Grid, z uint64, lo, hi []uint32) boxSearch {
	s := boxSearch{g: g, z: z, order: g.SplitOrder(), qlo: lo, qhi: hi}
	for i := range lo {
		s.rhi[i] = uint32(g.SideOf(i) - 1)
	}
	return s
}

// BigMin returns the smallest full-resolution z key >= z whose pixel
// lies inside the box [lo, hi] (inclusive per dimension). ok is false
// when no such pixel exists. BigMin(0, lo, hi) yields the first z
// value inside the box.
func (g Grid) BigMin(z uint64, lo, hi []uint32) (uint64, bool) {
	if len(lo) != g.Dims() || len(hi) != g.Dims() {
		panic("zorder: BigMin box arity mismatch")
	}
	s := newBoxSearch(g, z, lo, hi)
	return s.bigMin(Element{})
}

// InBox reports whether the pixel with the given full-resolution z key
// lies inside the box [lo, hi].
func (g Grid) InBox(z uint64, lo, hi []uint32) bool {
	var buf [MaxBits]uint32
	coords := buf[:g.Dims()]
	g.UnshuffleInto(Element{Bits: z, Len: uint8(g.TotalBits())}, coords)
	for i := range coords {
		if coords[i] < lo[i] || coords[i] > hi[i] {
			return false
		}
	}
	return true
}
