package geom

import (
	"math/rand"
	"testing"

	"probe/internal/zorder"
)

func TestNewBoxValidation(t *testing.T) {
	if _, err := NewBox([]uint32{1, 2}, []uint32{3, 4}); err != nil {
		t.Fatalf("valid box rejected: %v", err)
	}
	if _, err := NewBox([]uint32{5, 2}, []uint32{3, 4}); err == nil {
		t.Errorf("inverted bounds accepted")
	}
	if _, err := NewBox([]uint32{1}, []uint32{3, 4}); err == nil {
		t.Errorf("arity mismatch accepted")
	}
	if _, err := NewBox(nil, nil); err == nil {
		t.Errorf("empty box accepted")
	}
}

func TestBoxCopiesBounds(t *testing.T) {
	lo := []uint32{1, 2}
	hi := []uint32{3, 4}
	b := MustBox(lo, hi)
	lo[0] = 99
	if b.Lo[0] != 1 {
		t.Errorf("NewBox must copy its bounds")
	}
}

func TestBoxPredicates(t *testing.T) {
	b := Box2(1, 3, 0, 4) // Figure 1's query box
	if !b.ContainsPoint([]uint32{1, 0}) || !b.ContainsPoint([]uint32{3, 4}) {
		t.Errorf("corners must be contained")
	}
	if b.ContainsPoint([]uint32{0, 0}) || b.ContainsPoint([]uint32{4, 2}) {
		t.Errorf("outside points contained")
	}
	if !b.ContainsBox([]uint32{2, 1}, []uint32{3, 2}) {
		t.Errorf("inner box not contained")
	}
	if b.ContainsBox([]uint32{2, 1}, []uint32{5, 2}) {
		t.Errorf("straddling box contained")
	}
	if !b.Intersects([]uint32{3, 4}, []uint32{9, 9}) {
		t.Errorf("touching box should intersect")
	}
	if b.Intersects([]uint32{4, 5}, []uint32{9, 9}) {
		t.Errorf("disjoint box intersects")
	}
	if !b.IntersectsBox(Box2(0, 1, 0, 0)) {
		t.Errorf("IntersectsBox wrong")
	}
}

func TestBoxClassify(t *testing.T) {
	b := Box2(2, 5, 2, 5)
	if b.Classify([]uint32{3, 3}, []uint32{4, 4}) != Inside {
		t.Errorf("inner region should be Inside")
	}
	if b.Classify([]uint32{6, 6}, []uint32{7, 7}) != Outside {
		t.Errorf("outer region should be Outside")
	}
	if b.Classify([]uint32{0, 0}, []uint32{3, 3}) != Crosses {
		t.Errorf("straddling region should be Crosses")
	}
	// Single pixels never classify as Crosses.
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			p := []uint32{x, y}
			if c := b.Classify(p, p); c == Crosses {
				t.Fatalf("pixel (%d,%d) classified Crosses", x, y)
			}
		}
	}
}

func TestBoxVolume(t *testing.T) {
	b := Box2(1, 3, 0, 4)
	if b.Volume() != 15 {
		t.Errorf("Volume = %d, want 15", b.Volume())
	}
	if b.Side(0) != 3 || b.Side(1) != 5 {
		t.Errorf("Side wrong")
	}
	g := zorder.MustGrid(2, 3)
	if f := FullBox(g).VolumeFraction(g); f != 1.0 {
		t.Errorf("full box fraction = %v", f)
	}
	if f := Box2(0, 3, 0, 3).VolumeFraction(g); f != 0.25 {
		t.Errorf("quadrant fraction = %v, want 0.25", f)
	}
	// Volume of a maximal 32-bit box must not overflow.
	big := MustBox([]uint32{0, 0}, []uint32{1<<32 - 1, 1<<32 - 1})
	if big.Volume() != 0 { // 2^64 wraps; accepted sentinel for the full space
		t.Logf("full 64-bit volume wraps to %d", big.Volume())
	}
}

func TestBoxEqualString(t *testing.T) {
	a := Box2(1, 3, 0, 4)
	if !a.Equal(Box2(1, 3, 0, 4)) || a.Equal(Box2(1, 3, 0, 5)) {
		t.Errorf("Equal wrong")
	}
	if a.Equal(MustBox([]uint32{1}, []uint32{3})) {
		t.Errorf("Equal across arities")
	}
	if a.String() != "box(1..3, 0..4)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestPartialMatchBox(t *testing.T) {
	g := zorder.MustGrid(3, 4)
	b := PartialMatchBox(g, []bool{true, false, true}, []uint32{7, 0, 3})
	want := MustBox([]uint32{7, 0, 3}, []uint32{7, 15, 3})
	if !b.Equal(want) {
		t.Errorf("PartialMatchBox = %v, want %v", b, want)
	}
}

// classifyConsistent checks the Object contract on every region of a
// small grid against a per-pixel membership function.
func classifyConsistent(t *testing.T, obj Object, side uint32, member func(x, y uint32) bool) {
	t.Helper()
	for xlo := uint32(0); xlo < side; xlo++ {
		for xhi := xlo; xhi < side; xhi++ {
			for ylo := uint32(0); ylo < side; ylo++ {
				for yhi := ylo; yhi < side; yhi++ {
					lo := []uint32{xlo, ylo}
					hi := []uint32{xhi, yhi}
					all, none := true, true
					for x := xlo; x <= xhi; x++ {
						for y := ylo; y <= yhi; y++ {
							if member(x, y) {
								none = false
							} else {
								all = false
							}
						}
					}
					c := obj.Classify(lo, hi)
					switch {
					case all && c == Outside:
						t.Fatalf("region [%v %v] all-black classified Outside", lo, hi)
					case none && c == Inside:
						t.Fatalf("region [%v %v] all-white classified Inside", lo, hi)
					case !all && c == Inside:
						t.Fatalf("region [%v %v] not all black but Inside", lo, hi)
					case !none && c == Outside:
						t.Fatalf("region [%v %v] has black pixels but Outside", lo, hi)
					}
					if xlo == xhi && ylo == yhi && c == Crosses {
						t.Fatalf("pixel (%d,%d) classified Crosses", xlo, ylo)
					}
				}
			}
		}
	}
}

func TestDiskClassify(t *testing.T) {
	d, err := NewDisk([]float64{8, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	member := func(x, y uint32) bool {
		dx := float64(x) + 0.5 - 8
		dy := float64(y) + 0.5 - 8
		return dx*dx+dy*dy <= 25
	}
	classifyConsistent(t, d, 16, member)
}

// TestDiskClassifyExact: for a convex object, Crosses should only be
// reported when the region really straddles the boundary.
func TestDiskClassifyExact(t *testing.T) {
	d, _ := NewDisk([]float64{8, 8}, 5)
	member := func(x, y uint32) bool {
		dx := float64(x) + 0.5 - 8
		dy := float64(y) + 0.5 - 8
		return dx*dx+dy*dy <= 25
	}
	for xlo := uint32(0); xlo < 16; xlo += 2 {
		for ylo := uint32(0); ylo < 16; ylo += 2 {
			lo := []uint32{xlo, ylo}
			hi := []uint32{xlo + 1, ylo + 1}
			c := d.Classify(lo, hi)
			blacks := 0
			for x := xlo; x <= xlo+1; x++ {
				for y := ylo; y <= ylo+1; y++ {
					if member(x, y) {
						blacks++
					}
				}
			}
			if c == Crosses && (blacks == 0 || blacks == 4) {
				t.Errorf("disk Crosses on uniform region [%v %v] (%d black)", lo, hi, blacks)
			}
		}
	}
}

func TestDiskValidation(t *testing.T) {
	if _, err := NewDisk(nil, 1); err == nil {
		t.Errorf("empty center accepted")
	}
	if _, err := NewDisk([]float64{0}, -1); err == nil {
		t.Errorf("negative radius accepted")
	}
	d, _ := NewDisk([]float64{1, 2, 3}, 1)
	if d.Dims() != 3 {
		t.Errorf("Dims wrong")
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	// A right triangle (0,0) (8,0) (0,8).
	p := MustPolygon(Vertex{0, 0}, Vertex{8, 0}, Vertex{0, 8})
	cases := []struct {
		x, y float64
		want bool
	}{
		{1, 1, true},
		{3.9, 3.9, true},
		{4.1, 4.1, false},
		{4, 4, true}, // on the hypotenuse
		{0, 0, true}, // vertex
		{8.5, 0, false},
		{-1, 1, false},
		{2, 0, true}, // on an edge
	}
	for _, c := range cases {
		if got := p.ContainsPoint(c.x, c.y); got != c.want {
			t.Errorf("ContainsPoint(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestPolygonClassify(t *testing.T) {
	p := MustPolygon(Vertex{0, 0}, Vertex{16, 0}, Vertex{0, 16})
	member := func(x, y uint32) bool {
		return p.ContainsPoint(float64(x)+0.5, float64(y)+0.5)
	}
	classifyConsistent(t, p, 8, member)
}

func TestConcavePolygonClassify(t *testing.T) {
	// An L shape.
	p := MustPolygon(
		Vertex{0, 0}, Vertex{12, 0}, Vertex{12, 4},
		Vertex{4, 4}, Vertex{4, 12}, Vertex{0, 12},
	)
	member := func(x, y uint32) bool {
		return p.ContainsPoint(float64(x)+0.5, float64(y)+0.5)
	}
	classifyConsistent(t, p, 8, member)
	if p.Dims() != 2 {
		t.Errorf("Dims wrong")
	}
}

func TestPolygonValidation(t *testing.T) {
	if _, err := NewPolygon([]Vertex{{0, 0}, {1, 1}}); err == nil {
		t.Errorf("2-vertex polygon accepted")
	}
}

func TestPolygonBoundingBox(t *testing.T) {
	p := MustPolygon(Vertex{2.5, 3.5}, Vertex{10.9, 3.5}, Vertex{2.5, 7.2})
	b := p.BoundingBox(16)
	if !b.Equal(Box2(2, 10, 3, 7)) {
		t.Errorf("BoundingBox = %v", b)
	}
	// Clamping.
	q := MustPolygon(Vertex{-5, -5}, Vertex{100, -5}, Vertex{-5, 100})
	if !q.BoundingBox(16).Equal(Box2(0, 15, 0, 15)) {
		t.Errorf("clamped BoundingBox = %v", q.BoundingBox(16))
	}
}

func TestRasterClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bits := make([]bool, 8*8)
	for i := range bits {
		bits[i] = rng.Intn(3) == 0
	}
	r := NewRaster(8, 8, func(x, y int) bool { return bits[y*8+x] })
	member := func(x, y uint32) bool { return bits[y*8+x] }
	classifyConsistent(t, r, 8, member)
}

func TestRasterBeyondBounds(t *testing.T) {
	// A raster smaller than the grid treats out-of-bitmap pixels as white.
	r := NewRaster(4, 4, func(x, y int) bool { return true })
	if r.Classify([]uint32{0, 0}, []uint32{3, 3}) != Inside {
		t.Errorf("bitmap interior should be Inside")
	}
	if r.Classify([]uint32{4, 4}, []uint32{7, 7}) != Outside {
		t.Errorf("beyond bitmap should be Outside")
	}
	if r.Classify([]uint32{0, 0}, []uint32{7, 7}) != Crosses {
		t.Errorf("straddling bitmap edge should be Crosses")
	}
	if !r.Black(3, 3) || r.Black(4, 3) {
		t.Errorf("Black wrong")
	}
}

func TestRasterCount(t *testing.T) {
	r := NewRaster(4, 4, func(x, y int) bool { return x == y })
	if r.Count(0, 0, 3, 3) != 4 {
		t.Errorf("diagonal count = %d, want 4", r.Count(0, 0, 3, 3))
	}
	if r.Count(1, 0, 3, 1) != 1 {
		t.Errorf("sub count = %d, want 1", r.Count(1, 0, 3, 1))
	}
	if r.Count(5, 5, 9, 9) != 0 {
		t.Errorf("out-of-bounds count should be 0")
	}
}

func TestClassString(t *testing.T) {
	if Inside.String() != "inside" || Outside.String() != "outside" || Crosses.String() != "crosses" {
		t.Errorf("Class strings wrong")
	}
	if Class(42).String() == "" {
		t.Errorf("unknown class should still render")
	}
}

func TestPolygonCoverageClassify(t *testing.T) {
	p := MustPolygon(Vertex{X: 1.2, Y: 1.2}, Vertex{X: 6.7, Y: 1.6}, Vertex{X: 3.1, Y: 6.9})
	pc := PolygonCoverage{P: p}
	if pc.Dims() != 2 {
		t.Errorf("Dims wrong")
	}
	member := func(x, y uint32) bool { return pc.coveredPixel(x, y) }
	classifyConsistent(t, pc, 8, member)
	// Coverage is a superset of center sampling.
	for x := uint32(0); x < 8; x++ {
		for y := uint32(0); y < 8; y++ {
			if p.ContainsPoint(float64(x)+0.5, float64(y)+0.5) && !pc.coveredPixel(x, y) {
				t.Fatalf("coverage misses center-sampled pixel (%d,%d)", x, y)
			}
		}
	}
}

func TestPolygonCoverageSliver(t *testing.T) {
	// A sliver passing through pixel corners without covering any
	// center must still be covered.
	p := MustPolygon(Vertex{X: 0.9, Y: 0.9}, Vertex{X: 1.1, Y: 0.9}, Vertex{X: 1.1, Y: 1.1}, Vertex{X: 0.9, Y: 1.1})
	pc := PolygonCoverage{P: p}
	if !pc.coveredPixel(0, 0) || !pc.coveredPixel(1, 1) || !pc.coveredPixel(0, 1) || !pc.coveredPixel(1, 0) {
		t.Errorf("sliver not covered by its corner pixels")
	}
	if pc.coveredPixel(3, 3) {
		t.Errorf("distant pixel covered")
	}
}
