// Package decompose implements the decomposition of spatial objects
// into elements (Orenstein, SIGMOD 1986, Section 3.1): a region is
// split recursively, alternating dimensions, until each piece is
// entirely inside the object, entirely outside (discarded), or a
// single pixel on the boundary. The result is the z-ordered sequence
// of elements that approximates the object.
//
// The package also provides the lazy element cursor used by the
// optimized range-search merge ("the sequence B does not have to be
// formed before the merge starts", Section 3.3), the E(U,V) element
// counting of Section 5.1, and the boundary-expansion optimization.
// The eager walker descends the splitting tree for any object; the
// cursor serves boxes at full resolution only and finds each element by
// bit arithmetic on the box's corners (zorder.BoxKeys), with no
// descent.
package decompose

import (
	"fmt"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// Options tunes a decomposition.
type Options struct {
	// MaxLen caps element z-value length, producing a coarser
	// approximation: splitting stops at this depth even on boundary
	// regions. Zero means full resolution (k*d).
	MaxLen int
	// DropBoundary, when true, omits regions still crossing the
	// boundary at MaxLen, yielding an inner (subset) approximation.
	// The default (false) includes them, yielding the paper's outer
	// approximation: pixels inside or on the boundary.
	DropBoundary bool
}

func (o Options) maxLen(g zorder.Grid) (int, error) {
	if o.MaxLen == 0 {
		return g.TotalBits(), nil
	}
	if o.MaxLen < 0 || o.MaxLen > g.TotalBits() {
		return 0, fmt.Errorf("decompose: MaxLen %d outside [0,%d]", o.MaxLen, g.TotalBits())
	}
	return o.MaxLen, nil
}

// region is the state the eager walker carries: the object, the
// grid's split order and the current node's coordinate region,
// maintained incrementally (O(1) per split) in fixed arrays. It holds
// no pointer into itself, so a box decomposition lives on its caller's
// stack.
type region struct {
	g        zorder.Grid
	box      geom.Box    // the object, when obj is nil
	obj      geom.Object // any other object
	olo, ohi []uint32    // obj's copy of the region; see classify
	maxLen   int
	dropB    bool
	order    [zorder.MaxBits]uint8
	lo, hi   [zorder.MaxBits]uint32
}

// aim points the region at obj over g.
func (r *region) aim(g zorder.Grid, obj geom.Object, opts Options) error {
	if obj.Dims() != g.Dims() {
		return fmt.Errorf("decompose: object has %d dims, grid %d", obj.Dims(), g.Dims())
	}
	ml, err := opts.maxLen(g)
	if err != nil {
		return err
	}
	if b, ok := obj.(geom.Box); ok {
		r.aimBox(g, b)
	} else {
		r.obj = obj
		r.olo, r.ohi = make([]uint32, g.Dims()), make([]uint32, g.Dims())
		r.over(g)
	}
	r.maxLen, r.dropB = ml, opts.DropBoundary
	return nil
}

// aimBox points the region at box b over g at full resolution: the
// form that needs no interface and so no heap. A box of the wrong
// arity is the caller's bug.
func (r *region) aimBox(g zorder.Grid, b geom.Box) {
	if b.Dims() != g.Dims() {
		panic(fmt.Sprintf("decompose: box has %d dims, grid %d", b.Dims(), g.Dims()))
	}
	r.box, r.obj = b, nil
	r.over(g)
}

// over starts a full-resolution traversal of g at the whole space.
func (r *region) over(g zorder.Grid) {
	r.g, r.maxLen, r.dropB = g, g.TotalBits(), false
	r.order = g.SplitOrder()
	for i := 0; i < g.Dims(); i++ {
		r.lo[i], r.hi[i] = 0, uint32(g.SideOf(i)-1)
	}
}

// classify relates the object to the current region. A box is asked
// directly. Any other object is behind an interface, and a slice of
// the arrays passed through one would move every region, and the
// walker around it, to the heap: it sees a copy instead.
func (r *region) classify() geom.Class {
	d := r.g.Dims()
	if r.obj == nil {
		return r.box.Classify(r.lo[:d], r.hi[:d])
	}
	copy(r.olo, r.lo[:d])
	copy(r.ohi, r.hi[:d])
	return r.obj.Classify(r.olo, r.ohi)
}

// descend narrows the region to child b of the split at depth,
// returning the saved bound for restore.
func (r *region) descend(depth, b int) (dim int, saved uint32) {
	dim = int(r.order[depth])
	half := (r.hi[dim]-r.lo[dim])/2 + 1
	if b == 0 {
		saved = r.hi[dim]
		r.hi[dim] = r.lo[dim] + half - 1
	} else {
		saved = r.lo[dim]
		r.lo[dim] += half
	}
	return dim, saved
}

func (r *region) restore(dim, b int, saved uint32) {
	if b == 0 {
		r.hi[dim] = saved
	} else {
		r.lo[dim] = saved
	}
}

// walker is the eager traversal. The elements travel through walk's
// argument and result, not through a field: a field would share the
// fate of obj, which escapes, and put AppendBox's dst on the heap.
type walker struct {
	region
	n         int
	countOnly bool
}

// walk appends the elements of the decomposition inside e to out.
func (w *walker) walk(e zorder.Element, out []zorder.Element) []zorder.Element {
	c := w.classify()
	if c == geom.Outside {
		return out
	}
	if c == geom.Crosses && int(e.Len) < w.maxLen {
		for b := 0; b < 2; b++ {
			dim, saved := w.descend(int(e.Len), b)
			out = w.walk(e.Child(b), out)
			w.restore(dim, b, saved)
		}
		return out
	}
	if c == geom.Crosses {
		if int(e.Len) == w.g.TotalBits() {
			// Contract violation by the object; treat as a defect.
			// (The copy keeps fmt's interface off the region.)
			pixel := append([]uint32(nil), w.lo[:w.g.Dims()]...)
			panic(fmt.Sprintf("decompose: object classified pixel %v as crossing", pixel))
		}
		if w.dropB {
			return out
		}
	}
	w.n++
	if !w.countOnly {
		out = append(out, e)
	}
	return out
}

// Object decomposes a spatial object into its z-ordered sequence of
// elements.
func Object(g zorder.Grid, obj geom.Object, opts Options) ([]zorder.Element, error) {
	var w walker
	if err := w.aim(g, obj, opts); err != nil {
		return nil, err
	}
	return w.walk(zorder.Element{}, nil), nil
}

// AppendBox appends the decomposition of b at full resolution to dst
// and returns the extended slice. The traversal itself allocates
// nothing: into a dst with room, neither does the call.
func AppendBox(dst []zorder.Element, g zorder.Grid, b geom.Box) []zorder.Element {
	var w walker
	w.aimBox(g, b)
	return w.walk(zorder.Element{}, dst)
}

// Box decomposes a box at full resolution: the first RangeSearch
// algorithm of [OREN84], producing the sequence B of Section 3.3. The
// result is sized exactly: one pass into a stack buffer, one copy out.
func Box(g zorder.Grid, b geom.Box) []zorder.Element {
	var buf [256]zorder.Element
	elems := AppendBox(buf[:0], g, b)
	if len(elems) == 0 {
		return nil
	}
	out := make([]zorder.Element, len(elems))
	copy(out, elems)
	return out
}

// Count returns the number of elements a decomposition would produce
// without materializing them.
func Count(g zorder.Grid, obj geom.Object, opts Options) (int, error) {
	w := walker{countOnly: true}
	if err := w.aim(g, obj, opts); err != nil {
		return 0, err
	}
	w.walk(zorder.Element{}, nil)
	return w.n, nil
}

// CountBox is the paper's E(U,V) generalized to k dimensions: the
// number of elements in the decomposition of the box of the given
// sides whose lower corner is the origin (Section 5.1). The grid must
// be large enough to hold the box.
func CountBox(g zorder.Grid, sides []uint32) (int, error) {
	if len(sides) != g.Dims() {
		return 0, fmt.Errorf("decompose: %d sides for %d dims", len(sides), g.Dims())
	}
	lo := make([]uint32, g.Dims())
	hi := make([]uint32, g.Dims())
	for i, s := range sides {
		if s == 0 {
			return 0, nil
		}
		if uint64(s) > g.SideOf(i) {
			return 0, fmt.Errorf("decompose: side %d exceeds grid side %d", s, g.SideOf(i))
		}
		hi[i] = s - 1
	}
	n, err := Count(g, geom.Box{Lo: lo, Hi: hi}, Options{})
	return n, err
}

// E is CountBox for the 2-d case of Section 5.1: the number of
// elements in the decomposition of a U x V rectangle anchored at the
// origin of grid g.
func E(g zorder.Grid, u, v uint32) int {
	n, err := CountBox(g, []uint32{u, v})
	if err != nil {
		panic(err)
	}
	return n
}

// ExpandBoundary rounds u up so that its last m bits are zero: the
// Section 5.1 optimization that trades a slightly larger object (a
// coarser effective grid) for far fewer elements. For example
// ExpandBoundary(0b01101101, 4) == 0b01110000. The result is uint64
// because rounding up near the top of the uint32 range can exceed it.
func ExpandBoundary(u uint32, m int) uint64 {
	if m <= 0 {
		return uint64(u)
	}
	if m >= 32 {
		panic(fmt.Sprintf("decompose: ExpandBoundary m=%d out of range", m))
	}
	mask := uint64(1)<<uint(m) - 1
	return (uint64(u) + mask) &^ mask
}

// Condense canonicalizes a z-ordered element sequence: adjacent
// sibling pairs that are both present merge into their parent,
// recursively, and elements contained in earlier elements are
// dropped. The result is the minimal element sequence covering the
// same pixels. The input must be sorted in z order.
func Condense(elems []zorder.Element) []zorder.Element {
	var stack []zorder.Element
	for _, e := range elems {
		if len(stack) > 0 && stack[len(stack)-1].Contains(e) {
			continue // redundant: already covered
		}
		stack = append(stack, e)
		// Merge completed sibling pairs bottom-up.
		for len(stack) >= 2 {
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			if a.Len == b.Len && a.Len > 0 && a.Parent() == b.Parent() && a.Bit(int(a.Len)-1) == 0 && b.Bit(int(b.Len)-1) == 1 {
				stack = stack[:len(stack)-2]
				stack = append(stack, a.Parent())
				continue
			}
			break
		}
	}
	return stack
}

// PixelCount sums the pixels covered by a sequence of disjoint
// elements on grid g.
func PixelCount(g zorder.Grid, elems []zorder.Element) uint64 {
	var n uint64
	for _, e := range elems {
		n += e.PixelCount(g)
	}
	return n
}
