package decompose

import (
	"context"

	"probe/internal/geom"
	"probe/internal/obs"
	"probe/internal/zorder"
)

// Cursor enumerates the elements of a decomposition lazily and in z
// order, without materializing the whole sequence first. This is the
// Section 3.3 optimization: "Elements of the box may be generated on
// demand, i.e. when a sequential or random access on sequence B is
// performed."
//
// A Cursor supports both access patterns of the merge: Next (the
// sequential access) and Seek (the random access used to skip parts
// of the space that cannot contribute to the result).
type Cursor struct {
	region

	cur   zorder.Element
	valid bool
	done  bool

	span *obs.Span       // element-generation attribution; nil = untraced
	ctx  context.Context // cancellation; nil = never cancelled
	err  error           // sticky cancellation error, reported by Err
}

// NewCursor builds a cursor over the decomposition of obj. The cursor
// starts before the first element; call Next or Seek to position it.
func NewCursor(g zorder.Grid, obj geom.Object, opts Options) (*Cursor, error) {
	c := new(Cursor)
	if err := c.aim(g, obj, opts); err != nil {
		return nil, err
	}
	return c, nil
}

// ResetBox re-aims a cursor, whatever it did before, at the
// full-resolution decomposition of box b, before its first element and
// with no span or context. A zero Cursor is ready for it, so a cursor
// can live by value inside a recycled structure and serve one search
// after another without allocating.
func (c *Cursor) ResetBox(g zorder.Grid, b geom.Box) {
	*c = Cursor{}
	c.aimBox(g, b)
}

// SetSpan attributes the cursor's work to sp: one obs.Elements per
// element generated (each successful Next or Seek positioning). A nil
// span disables attribution at zero cost.
func (c *Cursor) SetSpan(sp *obs.Span) { c.span = sp }

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
func (c *Cursor) ZHi() uint64 { return c.Element().MaxZ(c.g.TotalBits()) }

// Next advances to the next element in z order. It returns false when
// the decomposition is exhausted.
func (c *Cursor) Next() bool {
	if c.done {
		return false
	}
	var from uint64
	if c.valid {
		hi := c.ZHi()
		last := zorder.Element{}.MaxZ(c.g.TotalBits())
		if hi == last {
			c.valid, c.done = false, true
			return false
		}
		from = hi + zStep(c.g)
	}
	return c.seekFrom(from)
}

// Seek positions the cursor on the first element whose z range ends
// at or after z (i.e. the element containing z, or the next one). It
// returns false when no such element exists.
func (c *Cursor) Seek(z uint64) bool {
	return c.seekFrom(z)
}

// zStep is the distance between consecutive full-resolution z keys
// (left-justified in 64 bits).
func zStep(g zorder.Grid) uint64 { return 1 << uint(64-g.TotalBits()) }

func (c *Cursor) seekFrom(z uint64) bool {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			c.valid, c.done = false, true
			return false
		}
	}
	c.whole()
	e, ok := c.search(zorder.Element{}, z)
	if !ok {
		c.valid, c.done = false, true
		return false
	}
	c.cur, c.valid, c.done = e, true, false
	c.span.Inc(obs.Elements)
	return true
}

// search finds the z-least emitted element within e whose MaxZ >= z.
func (c *Cursor) search(e zorder.Element, z uint64) (zorder.Element, bool) {
	if e.MaxZ(c.g.TotalBits()) < z {
		return zorder.Element{}, false
	}
	switch c.classify() {
	case geom.Outside:
		return zorder.Element{}, false
	case geom.Inside:
		return e, true
	}
	if int(e.Len) >= c.maxLen {
		if c.dropB {
			return zorder.Element{}, false
		}
		return e, true
	}
	for b := 0; b < 2; b++ {
		dim, saved := c.descend(int(e.Len), b)
		r, ok := c.search(e.Child(b), z)
		c.restore(dim, b, saved)
		if ok {
			return r, true
		}
	}
	return zorder.Element{}, false
}
