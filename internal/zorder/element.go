package zorder

import (
	"fmt"
	"strings"
)

// Element is a region of the grid obtained by recursive splitting,
// identified by its z value: a bitstring of Len bits stored
// left-justified in Bits (bit 63 holds the first bit; unused low bits
// are zero).
//
// The empty element (Len == 0) is the whole space. A full-length
// element (Len == k*d) is a single pixel.
//
// Elements are the objects manipulated by all approximate-geometry
// algorithms: the only possible relationships between two elements are
// containment and precedence in z order; partial overlap cannot occur
// (Section 3.2 of the paper).
type Element struct {
	Bits uint64
	Len  uint8
}

// NewElement builds an element from the low n bits of v (so callers
// can write natural literals: NewElement(0b001, 3)).
func NewElement(v uint64, n int) Element {
	if n < 0 || n > MaxBits {
		panic(fmt.Sprintf("zorder: element length %d out of range", n))
	}
	if n == 0 {
		return Element{}
	}
	return Element{Bits: v << uint(64-n), Len: uint8(n)}
}

// ParseElement parses a binary string such as "00110" into an element.
func ParseElement(s string) (Element, error) {
	if len(s) > MaxBits {
		return Element{}, fmt.Errorf("zorder: element %q longer than %d bits", s, MaxBits)
	}
	var bits uint64
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			bits |= 1 << uint(63-i)
		default:
			return Element{}, fmt.Errorf("zorder: element %q contains non-binary byte %q", s, s[i])
		}
	}
	return Element{Bits: bits, Len: uint8(len(s))}, nil
}

// MustParseElement is ParseElement panicking on error, for tests and
// fixed literals.
func MustParseElement(s string) Element {
	e, err := ParseElement(s)
	if err != nil {
		panic(err)
	}
	return e
}

// String renders the element as a binary string, e.g. "001". The whole
// space renders as "ε".
func (e Element) String() string {
	if e.Len == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := 0; i < int(e.Len); i++ {
		if e.Bits&(1<<uint(63-i)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// mask returns a mask of the n highest bits.
func mask(n uint8) uint64 {
	if n == 0 {
		return 0
	}
	return ^uint64(0) << uint(64-n)
}

// Compare orders elements lexicographically on their bitstrings: a
// proper prefix precedes its extensions. It returns -1, 0 or +1.
func (e Element) Compare(f Element) int {
	n := e.Len
	if f.Len < n {
		n = f.Len
	}
	m := mask(n)
	a, b := e.Bits&m, f.Bits&m
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case e.Len < f.Len:
		return -1
	case e.Len > f.Len:
		return 1
	}
	return 0
}

// Precedes reports whether e strictly precedes f in z order
// (lexicographic order on bitstrings). This is the `precedes` operator
// of the element object class (Section 4).
func (e Element) Precedes(f Element) bool { return e.Compare(f) < 0 }

// Contains reports whether e contains f, i.e. e's z value is a prefix
// of f's. Every element contains itself. This is the `contains`
// operator of the element object class (Section 4).
func (e Element) Contains(f Element) bool {
	if f.Len < e.Len {
		return false
	}
	m := mask(e.Len)
	return e.Bits&m == f.Bits&m
}

// Disjoint reports whether e and f share no pixels. Because partial
// overlap is impossible, two elements are disjoint exactly when
// neither contains the other.
func (e Element) Disjoint(f Element) bool {
	return !e.Contains(f) && !f.Contains(e)
}

// MinZ returns the smallest full-resolution z value (as a
// left-justified uint64 key) of any pixel inside the element: the z
// value of its "lower corner" in z order.
func (e Element) MinZ() uint64 { return e.Bits }

// MaxZ returns the largest full-resolution z value inside the element,
// given that full resolution is total bits long: the element's prefix
// followed by ones. The pair (MinZ, MaxZ) is the [zlo, zhi] record of
// the paper's range-search algorithm (Section 3.3).
func (e Element) MaxZ(total int) uint64 {
	if total < int(e.Len) {
		panic(fmt.Sprintf("zorder: element of %d bits longer than total %d", e.Len, total))
	}
	return e.Bits | (mask(uint8(total)) &^ mask(e.Len))
}

// Child returns the sub-element obtained by appending bit b (0 or 1).
func (e Element) Child(b int) Element {
	if e.Len >= MaxBits {
		panic("zorder: cannot split a 64-bit element")
	}
	c := Element{Bits: e.Bits, Len: e.Len + 1}
	if b != 0 {
		c.Bits |= 1 << uint(63-e.Len)
	}
	return c
}

// Parent returns the element with the last bit removed. The whole
// space is its own parent.
func (e Element) Parent() Element {
	if e.Len == 0 {
		return e
	}
	p := Element{Len: e.Len - 1}
	p.Bits = e.Bits & mask(p.Len)
	return p
}

// Bit returns bit i (0-based from the start) of the z value.
func (e Element) Bit(i int) int {
	if i < 0 || i >= int(e.Len) {
		panic(fmt.Sprintf("zorder: bit index %d out of %d", i, e.Len))
	}
	return int(e.Bits >> uint(63-i) & 1)
}

// IsPixel reports whether the element is a single pixel of g.
func (e Element) IsPixel(g Grid) bool { return int(e.Len) == g.TotalBits() }

// PixelCount returns the number of pixels of grid g covered by the
// element.
func (e Element) PixelCount(g Grid) uint64 {
	free := g.TotalBits() - int(e.Len)
	if free < 0 {
		panic("zorder: element longer than grid resolution")
	}
	if free == 64 {
		return 0 // 2^64 overflows; callers special-case the whole space
	}
	return 1 << uint(free)
}
