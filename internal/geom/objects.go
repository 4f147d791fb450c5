package geom

import "fmt"

// This file implements the non-box spatial objects used by the
// examples and the Section 6 algorithms. Pixel semantics: a pixel
// (x1,...,xk) belongs to an object when its center point
// (x1+0.5, ..., xk+0.5) lies inside or on the boundary of the object,
// matching the paper's "pixels [that] lie inside or on the boundary".
//
// Classify may answer Crosses conservatively on multi-pixel regions
// (the decomposition then simply splits further), but it is exact on
// single pixels, so decompositions are exact.

// Disk is a k-dimensional ball given by a center and radius in
// continuous grid coordinates.
type Disk struct {
	Center []float64
	Radius float64
}

// NewDisk constructs a Disk.
func NewDisk(center []float64, radius float64) (Disk, error) {
	if len(center) == 0 {
		return Disk{}, fmt.Errorf("geom: disk needs at least one dimension")
	}
	if radius < 0 {
		return Disk{}, fmt.Errorf("geom: negative disk radius %v", radius)
	}
	return Disk{Center: append([]float64(nil), center...), Radius: radius}, nil
}

// Dims implements Object.
func (d Disk) Dims() int { return len(d.Center) }

// Classify implements Object. The pixel centers of region [lo, hi]
// fill the closed rectangle [lo+0.5, hi+0.5]; because the ball is
// convex, the farthest center from d.Center is at a rectangle corner
// and the nearest is the rectangle's closest point, so the
// classification is exact at every level.
func (d Disk) Classify(lo, hi []uint32) Class {
	r2 := d.Radius * d.Radius
	var near2, far2 float64
	for i := range d.Center {
		cLo := float64(lo[i]) + 0.5
		cHi := float64(hi[i]) + 0.5
		// Nearest coordinate of the center rectangle to d.Center[i].
		n := d.Center[i]
		if n < cLo {
			n = cLo
		} else if n > cHi {
			n = cHi
		}
		dn := n - d.Center[i]
		near2 += dn * dn
		// Farthest corner coordinate.
		fLo := d.Center[i] - cLo
		if fLo < 0 {
			fLo = -fLo
		}
		fHi := cHi - d.Center[i]
		if fHi < 0 {
			fHi = -fHi
		}
		f := fLo
		if fHi > f {
			f = fHi
		}
		far2 += f * f
	}
	switch {
	case far2 <= r2:
		return Inside
	case near2 > r2:
		return Outside
	default:
		return Crosses
	}
}

// Vertex is a 2-d point in continuous grid coordinates.
type Vertex struct {
	X, Y float64
}

// Polygon is a simple (non-self-intersecting) 2-d polygon given by its
// vertices in order (either winding). Points on an edge count as
// inside.
type Polygon struct {
	V []Vertex
}

// NewPolygon validates and constructs a polygon.
func NewPolygon(v []Vertex) (Polygon, error) {
	if len(v) < 3 {
		return Polygon{}, fmt.Errorf("geom: polygon needs >= 3 vertices, got %d", len(v))
	}
	return Polygon{V: append([]Vertex(nil), v...)}, nil
}

// MustPolygon is NewPolygon panicking on error.
func MustPolygon(v ...Vertex) Polygon {
	p, err := NewPolygon(v)
	if err != nil {
		panic(err)
	}
	return p
}

// Dims implements Object.
func (p Polygon) Dims() int { return 2 }

// ContainsPoint reports whether (x, y) is inside or on the boundary of
// the polygon (even-odd rule with an on-edge check).
func (p Polygon) ContainsPoint(x, y float64) bool {
	n := len(p.V)
	inside := false
	for i := 0; i < n; i++ {
		a, b := p.V[i], p.V[(i+1)%n]
		if onSegment(a, b, x, y) {
			return true
		}
		// Ray casting toward +x.
		if (a.Y > y) != (b.Y > y) {
			xi := a.X + (y-a.Y)/(b.Y-a.Y)*(b.X-a.X)
			if x < xi {
				inside = !inside
			}
		}
	}
	return inside
}

// onSegment reports whether (x,y) lies on segment ab (with a small
// tolerance for the collinearity test).
func onSegment(a, b Vertex, x, y float64) bool {
	cross := (b.X-a.X)*(y-a.Y) - (b.Y-a.Y)*(x-a.X)
	if cross > 1e-9 || cross < -1e-9 {
		return false
	}
	if x < min2(a.X, b.X)-1e-9 || x > max2(a.X, b.X)+1e-9 {
		return false
	}
	if y < min2(a.Y, b.Y)-1e-9 || y > max2(a.Y, b.Y)+1e-9 {
		return false
	}
	return true
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// segmentIntersectsRect reports whether segment ab intersects the
// closed rectangle [x0,x1] x [y0,y1], by Liang-Barsky clipping.
func segmentIntersectsRect(a, b Vertex, x0, y0, x1, y1 float64) bool {
	t0, t1 := 0.0, 1.0
	dx, dy := b.X-a.X, b.Y-a.Y
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		r := q / p
		if p < 0 {
			if r > t1 {
				return false
			}
			if r > t0 {
				t0 = r
			}
		} else {
			if r < t0 {
				return false
			}
			if r < t1 {
				t1 = r
			}
		}
		return true
	}
	return clip(-dx, a.X-x0) && clip(dx, x1-a.X) &&
		clip(-dy, a.Y-y0) && clip(dy, y1-a.Y) && t0 <= t1
}

// Classify implements Object. On multi-pixel regions it tests whether
// any polygon edge enters the rectangle of pixel centers; if none
// does, the whole rectangle is on one side of the boundary and a
// single center query decides which. Single-pixel regions use the
// exact point test.
func (p Polygon) Classify(lo, hi []uint32) Class {
	cx := float64(lo[0]) + 0.5
	cy := float64(lo[1]) + 0.5
	if lo[0] == hi[0] && lo[1] == hi[1] {
		if p.ContainsPoint(cx, cy) {
			return Inside
		}
		return Outside
	}
	x0, y0 := cx, cy
	x1 := float64(hi[0]) + 0.5
	y1 := float64(hi[1]) + 0.5
	n := len(p.V)
	for i := 0; i < n; i++ {
		if segmentIntersectsRect(p.V[i], p.V[(i+1)%n], x0, y0, x1, y1) {
			return Crosses
		}
	}
	if p.ContainsPoint(cx, cy) {
		return Inside
	}
	return Outside
}

// BoundingBox returns the inclusive pixel box covering the polygon,
// clamped to [0, side-1].
func (p Polygon) BoundingBox(side uint32) Box {
	minX, minY := p.V[0].X, p.V[0].Y
	maxX, maxY := minX, minY
	for _, v := range p.V[1:] {
		minX, maxX = min2(minX, v.X), max2(maxX, v.X)
		minY, maxY = min2(minY, v.Y), max2(maxY, v.Y)
	}
	clampF := func(f float64) uint32 {
		if f < 0 {
			return 0
		}
		if f > float64(side-1) {
			return side - 1
		}
		return uint32(f)
	}
	return Box2(clampF(minX), clampF(maxX), clampF(minY), clampF(maxY))
}

// PolygonCoverage wraps a polygon with coverage semantics: a pixel
// belongs to the object when the polygon intersects the pixel's
// closed unit square [x, x+1] x [y, y+1], not merely when it covers
// the center. This is the conservative decomposition needed by
// broad-phase interference detection (Section 6): the approximation
// is a superset of the exact shape, so overlap tests have no false
// negatives.
type PolygonCoverage struct {
	P Polygon
}

// Dims implements Object.
func (pc PolygonCoverage) Dims() int { return 2 }

// coveredPixel reports whether the polygon touches the closed unit
// square of pixel (x, y).
func (pc PolygonCoverage) coveredPixel(x, y uint32) bool {
	x0, y0 := float64(x), float64(y)
	x1, y1 := x0+1, y0+1
	n := len(pc.P.V)
	for i := 0; i < n; i++ {
		if segmentIntersectsRect(pc.P.V[i], pc.P.V[(i+1)%n], x0, y0, x1, y1) {
			return true
		}
	}
	// No edge enters the square: it is entirely inside or outside.
	return pc.P.ContainsPoint(x0+0.5, y0+0.5)
}

// Classify implements Object.
func (pc PolygonCoverage) Classify(lo, hi []uint32) Class {
	if lo[0] == hi[0] && lo[1] == hi[1] {
		if pc.coveredPixel(lo[0], lo[1]) {
			return Inside
		}
		return Outside
	}
	// The region's pixels fill the closed rectangle [lo, hi+1].
	x0, y0 := float64(lo[0]), float64(lo[1])
	x1, y1 := float64(hi[0])+1, float64(hi[1])+1
	n := len(pc.P.V)
	for i := 0; i < n; i++ {
		if segmentIntersectsRect(pc.P.V[i], pc.P.V[(i+1)%n], x0, y0, x1, y1) {
			return Crosses
		}
	}
	if pc.P.ContainsPoint((x0+x1)/2, (y0+y1)/2) {
		return Inside
	}
	return Outside
}

// Raster is a 2-d object given by an explicit bitmap, as for LANDSAT
// data where "the grid representation is considered to be precise"
// (Section 2). Classification uses a summed-area table, so it is exact
// at every level.
type Raster struct {
	w, h int
	sum  []uint64 // (w+1)*(h+1) prefix sums of black pixels
}

// NewRaster builds a raster from a row-major bitmap: black[y*w+x]
// marks pixel (x, y).
func NewRaster(w, h int, black func(x, y int) bool) *Raster {
	r := &Raster{w: w, h: h, sum: make([]uint64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := uint64(0)
			if black(x, y) {
				v = 1
			}
			r.sum[(y+1)*stride+x+1] = v +
				r.sum[y*stride+x+1] + r.sum[(y+1)*stride+x] - r.sum[y*stride+x]
		}
	}
	return r
}

// Dims implements Object.
func (r *Raster) Dims() int { return 2 }

// Count returns the number of black pixels in the inclusive rectangle.
func (r *Raster) Count(xlo, ylo, xhi, yhi uint32) uint64 {
	if int(xlo) >= r.w || int(ylo) >= r.h {
		return 0
	}
	if int(xhi) >= r.w {
		xhi = uint32(r.w - 1)
	}
	if int(yhi) >= r.h {
		yhi = uint32(r.h - 1)
	}
	stride := r.w + 1
	a := r.sum[int(yhi+1)*stride+int(xhi+1)]
	b := r.sum[int(ylo)*stride+int(xhi+1)]
	c := r.sum[int(yhi+1)*stride+int(xlo)]
	d := r.sum[int(ylo)*stride+int(xlo)]
	return a - b - c + d
}

// Black reports whether pixel (x, y) is black.
func (r *Raster) Black(x, y uint32) bool { return r.Count(x, y, x, y) == 1 }

// Classify implements Object.
func (r *Raster) Classify(lo, hi []uint32) Class {
	n := r.Count(lo[0], lo[1], hi[0], hi[1])
	if n == 0 {
		return Outside
	}
	area := (uint64(hi[0]) - uint64(lo[0]) + 1) * (uint64(hi[1]) - uint64(lo[1]) + 1)
	// Pixels beyond the bitmap bounds are white.
	if uint64(hi[0]) >= uint64(r.w) || uint64(hi[1]) >= uint64(r.h) {
		return Crosses
	}
	if n == area {
		return Inside
	}
	return Crosses
}
