package main

import (
	"math/rand"
	"strconv"

	"probe"
	"probe/client"
	"probe/internal/workload"
)

// gridBits is the resolution per dimension: a 4096 x 4096 space.
const gridBits = 12

func benchGrid() probe.Grid { return probe.MustGrid(2, gridBits) }

// dynBase is the first id the benchmark gives a point it inserts
// during a run. Bulk-loaded ("static") points have ids below it and
// are never deleted, so a read's static part has one right answer
// however the concurrent writes interleave.
const dynBase = uint64(1) << 40

// sizes are the knobs that -quick shrinks.
type sizes struct {
	Points     int // before deduplication
	WarmOps    int // warm-up operations per caller
	Setups     int // set-ups per run (median reported)
	Recoveries int // crash/restart cycles per run (median reported)
	DiskOps    int // operations of caller 0 before disk_bytes_per_point is taken
	AllocDiv   int // divides a workload's AllocOps, the operations allocs_per_op is taken over
	DrillBoxes int // inputs of the exact-count drills
	SampleN    int // acked inserts/deletes re-checked after the restart
}

var fullSizes = sizes{Points: 200_000, WarmOps: 300, Setups: 3, Recoveries: 5, DiskOps: 1024, AllocDiv: 1, DrillBoxes: 512, SampleN: 1000}
var quickSizes = sizes{Points: 2_000, WarmOps: 20, Setups: 1, Recoveries: 1, DiskOps: 64, AllocDiv: 100, DrillBoxes: 64, SampleN: 100}

// genPoints builds the shared data set: half uniform, half in Gaussian
// clusters, at most one point per pixel, ids 1..n in generation order.
func genPoints(g probe.Grid, n int, seed int64) []probe.Point {
	per := 500
	clusters := n / 2 / per
	if clusters == 0 {
		clusters, per = 4, n/8
	}
	pts := workload.Uniform(g, n-clusters*per, seed)
	pts = append(pts, workload.Clustered(g, clusters, per, 48, seed+1)...)
	pts = workload.Dedupe(g, pts)
	for i := range pts {
		pts[i].ID = uint64(i + 1)
	}
	return pts
}

type opKind uint8

const (
	opRange opKind = iota
	opScan
	opNearest
	opQuery
	opJoin
	opInsert
	opTx
	opDelete
	opCheckpoint
	numKinds
)

var kindNames = [numKinds]string{"range", "scan", "nearest", "query", "join", "insert", "tx", "delete", "checkpoint"}

func (k opKind) String() string { return kindNames[k] }

// isRead reports whether the kind's answer is compared with the
// in-process library's.
func (k opKind) isRead() bool { return k <= opJoin }

// op is one generated operation: the inputs only, which is all the
// program under test receives.
type op struct {
	kind   opKind
	lo, hi []uint32 // range, scan, tx read box
	q      []uint32 // nearest
	text   string   // query
	count  bool     // query is the COUNT(*) form
	a, b   []client.BoxItem
	pts    []probe.Point // insert, tx, delete
}

// opGen yields one caller's operation sequence: a pure function of
// (seed, caller index, mix) and, for deletes, of the caller's own
// earlier inserts.
type opGen struct {
	rng    *rand.Rand
	side   uint32
	static []probe.Point
	// pattern holds the mix exactly: 100 kinds in the mix's shares, in
	// an order drawn from the seed, repeated. So every 100 consecutive
	// operations have the exact mix, and a run's share of heavy
	// operations does not depend on luck.
	pattern []opKind
	every   int // checkpoint cadence, 0 = never
	n       int // operations generated
	drawn   int // of them, drawn from the pattern
	nextID  uint64
	nQuery  int
	// live is the caller's own acked, not yet deleted inserts, oldest
	// first; the driver appends after each acked insert.
	live []probe.Point
}

func newOpGen(seed int64, conn int, w workloadSpec, static []probe.Point) *opGen {
	g := &opGen{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 17)),
		side:   1 << gridBits,
		static: static,
		nextID: dynBase + uint64(conn)<<32,
	}
	if conn == 0 {
		g.every = w.CheckpointEvery
	}
	for k, share := range w.Mix {
		for i := 0; i < share; i++ {
			g.pattern = append(g.pattern, opKind(k))
		}
	}
	g.rng.Shuffle(len(g.pattern), func(i, j int) { g.pattern[i], g.pattern[j] = g.pattern[j], g.pattern[i] })
	return g
}

// centre draws a query centre: 80 % from the data, so queries are
// skewed to the clusters like the data is, and 20 % uniform.
func (g *opGen) centre() (uint32, uint32) {
	if g.rng.Intn(5) > 0 {
		p := g.static[g.rng.Intn(len(g.static))]
		return p.Coords[0], p.Coords[1]
	}
	return uint32(g.rng.Intn(int(g.side))), uint32(g.rng.Intn(int(g.side)))
}

// box returns the box of the given sides centred on (cx, cy), clipped
// to the grid.
func (g *opGen) box(cx, cy, w, h uint32) (lo, hi []uint32) {
	clip := func(c, half, side uint32) (uint32, uint32) {
		l, h := uint32(0), c+half
		if c > half {
			l = c - half
		}
		if h >= side {
			h = side - 1
		}
		return l, h
	}
	xl, xh := clip(cx, w/2, g.side)
	yl, yh := clip(cy, h/2, g.side)
	return []uint32{xl, yl}, []uint32{xh, yh}
}

func (g *opGen) between(lo, hi int) uint32 { return uint32(lo + g.rng.Intn(hi-lo+1)) }

func (g *opGen) boxItems(cx, cy uint32, n int, idBase uint64) []client.BoxItem {
	items := make([]client.BoxItem, n)
	for i := range items {
		// Spread the boxes over a 512-wide window so some pairs overlap.
		x := cx + g.between(0, 512)
		y := cy + g.between(0, 512)
		lo, hi := g.box(x%g.side, y%g.side, g.between(8, 64), g.between(8, 64))
		items[i] = client.BoxItem{ID: idBase + uint64(i), Lo: lo, Hi: hi}
	}
	return items
}

// newPoints makes n fresh points near a centre: new data arrives
// where data already is.
func (g *opGen) newPoints(n int) []probe.Point {
	cx, cy := g.centre()
	pts := make([]probe.Point, n)
	for i := range pts {
		x := (cx + g.between(0, 64)) % g.side
		y := (cy + g.between(0, 64)) % g.side
		pts[i] = probe.Pt2(g.nextID, x, y)
		g.nextID++
	}
	return pts
}

func sqlBox(buf []byte, lo, hi []uint32) []byte {
	buf = append(buf, "BOX("...)
	buf = strconv.AppendUint(buf, uint64(lo[0]), 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, uint64(hi[0]), 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, uint64(lo[1]), 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, uint64(hi[1]), 10)
	return append(buf, ')')
}

// next generates the caller's next operation.
func (g *opGen) next() op {
	g.n++
	if g.every > 0 && g.n%g.every == 0 {
		return op{kind: opCheckpoint}
	}
	kind := g.pattern[g.drawn%len(g.pattern)]
	g.drawn++
	if kind == opDelete && len(g.live) < 8 {
		kind = opInsert // nothing of the caller's own to delete yet
	}
	o := op{kind: kind}
	switch kind {
	case opRange:
		// Sides of 24-48 return a median of 17 rows (the issue's 32-64: 29),
		// few enough that per-request overhead and seeks dominate.
		cx, cy := g.centre()
		o.lo, o.hi = g.box(cx, cy, g.between(24, 48), g.between(24, 48))
	case opScan:
		cx, cy := g.centre()
		o.lo, o.hi = g.box(cx, cy, g.between(380, 420), g.between(380, 420))
	case opNearest:
		cx, cy := g.centre()
		o.q = []uint32{cx, cy}
	case opQuery:
		cx, cy := g.centre()
		g.nQuery++
		buf := make([]byte, 0, 96)
		if g.nQuery%2 == 0 {
			o.count = true
			o.lo, o.hi = g.box(cx, cy, g.between(128, 256), g.between(128, 256))
			buf = append(buf, "SELECT COUNT(*) FROM points WHERE INTERSECTS("...)
			buf = append(sqlBox(buf, o.lo, o.hi), ')')
		} else {
			o.lo, o.hi = g.box(cx, cy, g.between(64, 128), g.between(64, 128))
			buf = append(buf, "SELECT id FROM points WHERE CONTAINS("...)
			buf = append(sqlBox(buf, o.lo, o.hi), ") LIMIT 100"...)
		}
		o.text = string(buf)
	case opJoin:
		cx, cy := g.centre()
		o.a = g.boxItems(cx, cy, 32, 1)
		o.b = g.boxItems(cx, cy, 32, 1001)
	case opInsert:
		o.pts = g.newPoints(8)
	case opTx:
		o.pts = g.newPoints(4)
		o.lo, o.hi = []uint32{g.side, g.side}, []uint32{0, 0}
		for _, p := range o.pts {
			for d := 0; d < 2; d++ {
				o.lo[d] = min(o.lo[d], p.Coords[d])
				o.hi[d] = max(o.hi[d], p.Coords[d])
			}
		}
	case opDelete:
		o.pts = append([]probe.Point(nil), g.live[:8]...)
		g.live = g.live[8:]
	}
	return o
}
