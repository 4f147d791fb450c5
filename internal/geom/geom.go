// Package geom provides the geometric substrate for approximate
// geometry: integer boxes over a grid, and spatial objects exposing
// the Inside/Outside/Crosses classification oracle that drives the
// decomposition algorithm (Section 3.1 of the paper: "All that is
// required is a procedure that indicates whether a given element is
// inside a given spatial object, outside the object, or crosses the
// boundary of the object").
package geom

import (
	"fmt"

	"probe/internal/zorder"
)

// Class is the classification of a grid region against a spatial
// object.
type Class int

const (
	// Outside: no pixel of the region belongs to the object.
	Outside Class = iota
	// Inside: every pixel of the region belongs to the object.
	Inside
	// Crosses: the region straddles the object's boundary (or the
	// object cannot cheaply prove Inside/Outside; conservative
	// Crosses answers are allowed except for single-pixel regions).
	Crosses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Outside:
		return "outside"
	case Inside:
		return "inside"
	case Crosses:
		return "crosses"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Object is a k-dimensional spatial object that can classify grid
// regions. Classify receives the inclusive pixel bounds of a region
// obtained by recursive splitting. For a single-pixel region
// (lo == hi) the result must be Inside or Outside, never Crosses.
type Object interface {
	// Dims returns the dimensionality of the object.
	Dims() int
	// Classify classifies the region [lo, hi] (inclusive pixel
	// coordinates per dimension).
	Classify(lo, hi []uint32) Class
}

// Box is an axis-parallel box of grid pixels with inclusive bounds.
// It is both the query shape of range searches (Figure 1) and a
// spatial object in its own right.
type Box struct {
	Lo, Hi []uint32
}

// NewBox builds a box and validates that the bounds have equal arity
// and lo <= hi in every dimension. The box holds copies of the bounds,
// both in one allocation: Lo is capped at its length, so an append to
// it cannot write into Hi.
func NewBox(lo, hi []uint32) (Box, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return Box{}, fmt.Errorf("geom: box bounds have arity %d vs %d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return Box{}, fmt.Errorf("geom: box dimension %d has lo %d > hi %d", i, lo[i], hi[i])
		}
	}
	n, b := len(lo), append(append(make([]uint32, 0, 2*len(lo)), lo...), hi...)
	return Box{Lo: b[:n:n], Hi: b[n:]}, nil
}

// MustBox is NewBox panicking on error.
func MustBox(lo, hi []uint32) Box {
	b, err := NewBox(lo, hi)
	if err != nil {
		panic(err)
	}
	return b
}

// Box2 builds a 2-d box from scalar bounds.
func Box2(xlo, xhi, ylo, yhi uint32) Box {
	return MustBox([]uint32{xlo, ylo}, []uint32{xhi, yhi})
}

// Dims implements Object.
func (b Box) Dims() int { return len(b.Lo) }

// ContainsPoint reports whether the pixel lies inside the box.
func (b Box) ContainsPoint(p []uint32) bool {
	for i := range b.Lo {
		if p[i] < b.Lo[i] || p[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether the box contains the region [lo, hi].
func (b Box) ContainsBox(lo, hi []uint32) bool {
	for i := range b.Lo {
		if lo[i] < b.Lo[i] || hi[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the box intersects the region [lo, hi].
func (b Box) Intersects(lo, hi []uint32) bool {
	for i := range b.Lo {
		if hi[i] < b.Lo[i] || lo[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// IntersectsBox reports whether two boxes share a pixel.
func (b Box) IntersectsBox(o Box) bool { return b.Intersects(o.Lo, o.Hi) }

// Classify implements Object.
func (b Box) Classify(lo, hi []uint32) Class {
	if !b.Intersects(lo, hi) {
		return Outside
	}
	if b.ContainsBox(lo, hi) {
		return Inside
	}
	return Crosses
}

// Side returns hi-lo+1 for dimension i.
func (b Box) Side(i int) uint64 { return uint64(b.Hi[i]) - uint64(b.Lo[i]) + 1 }

// Volume returns the number of pixels in the box.
func (b Box) Volume() uint64 {
	v := uint64(1)
	for i := range b.Lo {
		v *= b.Side(i)
	}
	return v
}

// VolumeFraction returns the box volume as a fraction of grid g's
// volume, the quantity v of the paper's O(vN) page-access result.
func (b Box) VolumeFraction(g zorder.Grid) float64 {
	f := 1.0
	for i := range b.Lo {
		f *= float64(b.Side(i)) / float64(g.SideOf(i))
	}
	return f
}

// Equal reports deep equality of two boxes.
func (b Box) Equal(o Box) bool {
	if len(b.Lo) != len(o.Lo) {
		return false
	}
	for i := range b.Lo {
		if b.Lo[i] != o.Lo[i] || b.Hi[i] != o.Hi[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (b Box) String() string {
	s := "box("
	for i := range b.Lo {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d..%d", b.Lo[i], b.Hi[i])
	}
	return s + ")"
}

// FullBox returns the box covering the entire grid.
func FullBox(g zorder.Grid) Box {
	lo := make([]uint32, g.Dims())
	hi := make([]uint32, g.Dims())
	for i := range hi {
		hi[i] = uint32(g.SideOf(i) - 1)
	}
	return Box{Lo: lo, Hi: hi}
}

// PartialMatchBox builds the box of a partial-match query on grid g:
// restricted[i] pins dimension i to value[i]; unrestricted dimensions
// span the whole axis (Section 5.3.1).
func PartialMatchBox(g zorder.Grid, restricted []bool, value []uint32) Box {
	b := FullBox(g)
	for i, r := range restricted {
		if r {
			b.Lo[i] = value[i]
			b.Hi[i] = value[i]
		}
	}
	return b
}
