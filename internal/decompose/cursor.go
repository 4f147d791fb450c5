package decompose

import (
	"context"
	"fmt"

	"probe/internal/geom"
	"probe/internal/zorder"
)

// Cursor enumerates the elements of a box's full-resolution
// decomposition lazily and in z order, without materializing the
// whole sequence first. This is the Section 3.3 optimization:
// "Elements of the box may be generated on demand, i.e. when a
// sequential or random access on sequence B is performed."
//
// A Cursor supports both access patterns of the merge: Next (the
// sequential access) and Seek (the random access used to skip parts
// of the space that cannot contribute to the result). Each is box
// arithmetic, not a descent: Seek(z) finds the first in-box pixel at
// or after z (zorder.BoxKeys.BigMin) and the element around it
// (zorder.BoxKeys.Element); Next is Seek(ZHi + 1).
type Cursor struct {
	box   zorder.BoxKeys
	total int // the grid's total bits
	cur   zorder.Element
	valid bool
	done  bool

	ctx context.Context // cancellation; nil = never cancelled
	err error           // sticky cancellation error, reported by Err
}

// NewCursor builds a cursor over the decomposition of obj, which must
// be a geom.Box decomposed at full resolution (opts.MaxLen 0 or the
// grid's total bits); any other object or depth is an error. The
// cursor starts before the first element; call Next or Seek to
// position it.
func NewCursor(g zorder.Grid, obj geom.Object, opts Options) (*Cursor, error) {
	b, ok := obj.(geom.Box)
	if !ok {
		return nil, fmt.Errorf("decompose: a cursor decomposes a box, not %T", obj)
	}
	if b.Dims() != g.Dims() {
		return nil, fmt.Errorf("decompose: object has %d dims, grid %d", b.Dims(), g.Dims())
	}
	if opts.MaxLen != 0 && opts.MaxLen != g.TotalBits() {
		return nil, fmt.Errorf("decompose: a cursor decomposes at full resolution, not MaxLen %d", opts.MaxLen)
	}
	c := new(Cursor)
	c.ResetBox(g, b)
	return c, nil
}

// ResetBox re-aims a cursor, whatever it did before, at the
// full-resolution decomposition of box b, before its first element and
// with no context. A zero Cursor is ready for it, so a cursor
// can live by value inside a recycled structure and serve one search
// after another without allocating. A box of the wrong arity is the
// caller's bug.
func (c *Cursor) ResetBox(g zorder.Grid, b geom.Box) {
	if b.Dims() != g.Dims() {
		panic(fmt.Sprintf("decompose: box has %d dims, grid %d", b.Dims(), g.Dims()))
	}
	// Field by field: a composite literal would zero and copy the whole
	// cursor, its BoxKeys included, on every search.
	c.box.Reset(g, b.Lo, b.Hi)
	c.total, c.cur, c.valid, c.done = g.TotalBits(), zorder.Element{}, false, false
	c.ctx, c.err = nil, nil
}

// SetContext makes the cursor cancellable: each element generation
// (every Next or Seek) checks the context first and, once it is done,
// stops with the cursor exhausted and the context's error held for
// Err. A nil context (the default) disables the checks at zero cost.
func (c *Cursor) SetContext(ctx context.Context) { c.ctx = ctx }

// Err reports why the cursor stopped: nil after a normal exhaustion,
// the context's error after a cancellation. Callers that see Next or
// Seek return false must consult Err before treating the sequence as
// complete.
func (c *Cursor) Err() error { return c.err }

// Valid reports whether the cursor is positioned on an element.
func (c *Cursor) Valid() bool { return c.valid }

// Element returns the current element; the cursor must be Valid.
func (c *Cursor) Element() zorder.Element {
	if !c.valid {
		panic("decompose: Element on invalid cursor")
	}
	return c.cur
}

// ZLo and ZHi return the current element's z range: the [zlo, zhi]
// record of the paper's sequence B.
func (c *Cursor) ZLo() uint64 { return c.Element().MinZ() }

// ZHi returns the largest full-resolution z value in the current
// element.
func (c *Cursor) ZHi() uint64 { return c.Element().MaxZ(c.total) }

// Next advances to the next element in z order. It returns false when
// the decomposition is exhausted.
func (c *Cursor) Next() bool {
	switch {
	case c.done:
		return false
	case !c.valid:
		return c.Seek(0)
	}
	if z := c.ZHi() + 1; z != 0 {
		return c.Seek(z)
	}
	c.valid, c.done = false, true // the element ended at the last key
	return false
}

// Seek positions the cursor on the first element whose z range ends
// at or after z (i.e. the element containing z, or the next one). It
// returns false when no such element exists.
func (c *Cursor) Seek(z uint64) bool {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			c.valid, c.done = false, true
			return false
		}
	}
	p, ok := c.box.BigMin(z)
	if !ok {
		c.valid, c.done = false, true
		return false
	}
	c.cur, c.valid, c.done = c.box.Element(p), true, false
	return true
}
