package decompose

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"probe/internal/geom"
	"probe/internal/zorder"
)

func collectCursor(t *testing.T, c *Cursor) []zorder.Element {
	t.Helper()
	var out []zorder.Element
	for c.Next() {
		out = append(out, c.Element())
	}
	return out
}

// TestCursorMatchesEagerDecomposition: iterating the lazy cursor
// yields exactly the eager decomposition, in order.
func TestCursorMatchesEagerDecomposition(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	objs := []geom.Object{
		geom.Box2(1, 3, 0, 4),
		geom.Box2(0, 15, 7, 7),
		geom.FullBox(g),
	}
	for _, obj := range objs {
		want, err := Object(g, obj, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCursor(g, obj, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := collectCursor(t, c)
		if len(got) != len(want) {
			t.Fatalf("obj %v: cursor yielded %d elements, want %d", obj, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("obj %v: element %d = %v, want %v", obj, i, got[i], want[i])
			}
		}
		if c.Next() {
			t.Errorf("exhausted cursor restarted")
		}
	}
}

func TestCursorSeek(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	b := geom.Box2(3, 11, 2, 13)
	all := Box(g, b)
	c, err := NewCursor(g, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		z := rng.Uint64() >> uint(64-g.TotalBits()) << uint(64-g.TotalBits())
		ok := c.Seek(z)
		// Reference: first element with MaxZ >= z.
		var want *zorder.Element
		for i := range all {
			if all[i].MaxZ(g.TotalBits()) >= z {
				want = &all[i]
				break
			}
		}
		if (want != nil) != ok {
			t.Fatalf("Seek(%x) ok=%v, want %v", z, ok, want != nil)
		}
		if ok && c.Element() != *want {
			t.Fatalf("Seek(%x) = %v, want %v", z, c.Element(), *want)
		}
	}
}

func TestCursorSeekThenNext(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	b := geom.Box2(3, 11, 2, 13)
	all := Box(g, b)
	c, _ := NewCursor(g, b, Options{})
	mid := all[len(all)/2]
	if !c.Seek(mid.MinZ()) || c.Element() != mid {
		t.Fatalf("Seek to element start should land on it")
	}
	for i := len(all)/2 + 1; i < len(all); i++ {
		if !c.Next() || c.Element() != all[i] {
			t.Fatalf("Next after Seek out of sequence at %d", i)
		}
	}
	if c.Next() {
		t.Errorf("cursor should be exhausted")
	}
}

func TestCursorZRange(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	b := geom.Box2(2, 3, 0, 3)
	c, _ := NewCursor(g, b, Options{})
	if !c.Next() {
		t.Fatal("no elements")
	}
	e := zorder.MustParseElement("001")
	if c.Element() != e {
		t.Fatalf("element = %v, want 001", c.Element())
	}
	if c.ZLo() != e.MinZ() || c.ZHi() != e.MaxZ(6) {
		t.Errorf("z range [%x,%x] wrong", c.ZLo(), c.ZHi())
	}
}

func TestCursorOnInvalid(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	c, _ := NewCursor(g, geom.Box2(0, 1, 0, 1), Options{})
	if c.Valid() {
		t.Errorf("fresh cursor should be invalid")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Element on invalid cursor should panic")
		}
	}()
	c.Element()
}

func TestCursorWholeSpaceTermination(t *testing.T) {
	// An object covering the whole space ends at the all-ones z value;
	// Next must terminate rather than wrap.
	g := zorder.MustGrid(2, 2)
	c, _ := NewCursor(g, geom.FullBox(g), Options{})
	n := 0
	for c.Next() {
		n++
		if n > 2 {
			t.Fatal("cursor did not terminate")
		}
	}
	if n != 1 {
		t.Errorf("whole space should yield one element, got %d", n)
	}
}

func TestCursorBadOptions(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	if _, err := NewCursor(g, geom.Box2(0, 1, 0, 1), Options{MaxLen: 99}); err == nil {
		t.Errorf("bad MaxLen accepted")
	}
}

// TestCursorServesBoxesOnly: the cursor decomposes a box at full
// resolution; any other object, or a capped depth, is refused.
func TestCursorServesBoxesOnly(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	d, _ := geom.NewDisk([]float64{8, 8}, 5)
	if _, err := NewCursor(g, d, Options{}); err == nil {
		t.Errorf("a disk accepted")
	}
	if _, err := NewCursor(g, geom.Box2(1, 3, 0, 4), Options{MaxLen: 4}); err == nil {
		t.Errorf("MaxLen 4 accepted")
	}
	if _, err := NewCursor(g, geom.Box{Lo: []uint32{1}, Hi: []uint32{3}}, Options{}); err == nil {
		t.Errorf("a 1-d box accepted on a 2-d grid")
	}
	if _, err := NewCursor(g, geom.Box2(1, 3, 0, 4), Options{MaxLen: g.TotalBits()}); err != nil {
		t.Errorf("MaxLen at the grid's total bits refused: %v", err)
	}
}

// checkCursor walks a cursor over box b with Next, then seeks it to
// each z of seeks, and compares both with the eager decomposition:
// Next yields it in order, and Seek(z) lands on its first element
// whose z range ends at or after z.
func checkCursor(g zorder.Grid, b geom.Box, seeks []uint64) error {
	eager := Box(g, b)
	var c Cursor
	c.ResetBox(g, b)
	n := 0
	for ; c.Next(); n++ {
		if n >= len(eager) || c.Element() != eager[n] {
			return fmt.Errorf("%v box %v: Next %d gave %v, eager has %v", g, b, n, c.Element(), eager)
		}
	}
	if n != len(eager) || c.Next() {
		return fmt.Errorf("%v box %v: Next gave %d elements and then %v, eager has %d", g, b, n, c.Valid(), len(eager))
	}
	total := g.TotalBits()
	for _, z := range seeks {
		i := sort.Search(len(eager), func(i int) bool { return eager[i].MaxZ(total) >= z })
		ok := c.Seek(z)
		if ok != (i < len(eager)) || ok && c.Element() != eager[i] {
			return fmt.Errorf("%v box %v: Seek(%x) = %v on %v, want element %d of %v", g, b, z, ok, c.cur, i, eager)
		}
	}
	return nil
}

// TestCursorMatchesEagerExhaustive checks the cursor's arithmetic
// against the eager walker: every box and every seek of small grids,
// then random boxes on large ones, seeking to each element's ends and
// to random keys.
func TestCursorMatchesEagerExhaustive(t *testing.T) {
	for _, g := range []zorder.Grid{zorder.MustGrid(2, 3), zorder.MustGrid(2, 4), zorder.MustGrid(3, 2),
		zorder.MustGridAsym(3, 1), zorder.MustGridAsym(1, 3, 2), zorder.MustGridAsym(2, 4),
		zorder.MustGridAsym(5, 3), zorder.MustGrid(1, 6)} {
		keys := make([]uint64, g.Cells())
		for n := range keys {
			keys[n] = uint64(n) << uint(64-g.TotalBits())
		}
		lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims())
		var boxes func(i int)
		boxes = func(i int) {
			if i == g.Dims() {
				if err := checkCursor(g, geom.Box{Lo: lo, Hi: hi}, keys); err != nil {
					t.Fatal(err)
				}
				return
			}
			for lo[i] = 0; uint64(lo[i]) < g.SideOf(i); lo[i]++ {
				for hi[i] = lo[i]; uint64(hi[i]) < g.SideOf(i); hi[i]++ {
					boxes(i + 1)
				}
			}
		}
		boxes(0)
	}
	// A box reaching past the grid's edge decomposes clipped.
	if err := checkCursor(zorder.MustGridAsym(2, 4), geom.Box2(1, 9, 3, 40), nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	for _, g := range []zorder.Grid{zorder.MustGrid(2, 32), zorder.MustGrid(2, 12), zorder.MustGridAsym(5, 9, 12, 3)} {
		for trial := 0; trial < 300; trial++ {
			// Sides up to 40 (fewer in 4-d) keep the eager list short; the
			// first trial's box sits at the grid's last pixel, the second's
			// at its first.
			lo, hi := make([]uint32, g.Dims()), make([]uint32, g.Dims())
			for i := range lo {
				side := g.SideOf(i)
				w := 1 + rng.Uint64()%min(side, uint64(160/(g.Dims()*g.Dims())))
				x := rng.Uint64() % (side - w + 1)
				switch trial {
				case 0:
					x = side - w
				case 1:
					x = 0
				}
				lo[i], hi[i] = uint32(x), uint32(x+w-1)
			}
			b := geom.Box{Lo: lo, Hi: hi}
			var seeks []uint64
			for _, e := range Box(g, b) {
				seeks = append(seeks, e.MinZ(), e.MaxZ(g.TotalBits()), e.MaxZ(g.TotalBits())+1)
			}
			for n := 0; n < 50; n++ {
				seeks = append(seeks, rng.Uint64())
			}
			if err := checkCursor(g, b, seeks); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func BenchmarkDecomposeBox(b *testing.B) {
	g := zorder.MustGrid(2, 16)
	box := geom.Box2(1000, 33333, 2000, 44444)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(Box(g, box)) == 0 {
			b.Fatal("empty decomposition")
		}
	}
}

func BenchmarkCursorIterate(b *testing.B) {
	g := zorder.MustGrid(2, 16)
	box := geom.Box2(1000, 33333, 2000, 44444)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := NewCursor(g, box, Options{})
		n := 0
		for c.Next() {
			n++
		}
		if n == 0 {
			b.Fatal("no elements")
		}
	}
}

// TestCursorSeekAfterExhaustion: a cursor that ran off the end must
// come back to life on a successful Seek (regression: done was left
// sticky, making Next after a revive-Seek return false).
func TestCursorSeekAfterExhaustion(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	b := geom.Box2(3, 11, 2, 13)
	all := Box(g, b)
	c, _ := NewCursor(g, b, Options{})
	for c.Next() {
	}
	if c.Valid() {
		t.Fatal("cursor should be exhausted")
	}
	// Revive by seeking back to the start.
	if !c.Seek(0) {
		t.Fatal("Seek(0) after exhaustion failed")
	}
	if c.Element() != all[0] {
		t.Fatalf("revived cursor at %v, want %v", c.Element(), all[0])
	}
	for i := 1; i < len(all); i++ {
		if !c.Next() {
			t.Fatalf("Next after revival stopped at %d of %d", i, len(all))
		}
		if c.Element() != all[i] {
			t.Fatalf("element %d = %v, want %v", i, c.Element(), all[i])
		}
	}
	if c.Next() {
		t.Errorf("cursor should re-exhaust")
	}
}
