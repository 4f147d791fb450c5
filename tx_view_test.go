package probe_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"probe"
	"probe/internal/btree"
)

// TestTxBuffersKeysNotCallerSlices: a transaction buffers the key of
// each point it writes, so a caller reusing its coordinate slice after
// Insert or Delete changes neither the transaction's view nor what
// commits.
func TestTxBuffersKeysNotCallerSlices(t *testing.T) {
	db := txTestDB(t)
	if err := db.Insert(probe.Pt2(2, 3, 3)); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	ins, del := []uint32{1, 1}, []uint32{3, 3}
	if err := tx.Insert(probe.Point{ID: 1, Coords: ins}); err != nil {
		t.Fatal(err)
	}
	if ok, err := tx.Delete(probe.Point{ID: 2, Coords: del}); err != nil || !ok {
		t.Fatalf("delete of (3, 3): %v %v", ok, err)
	}
	ins[0], del[0] = 7, 7
	const want = "[p1[1 1]]"
	full := probe.Box2(0, 255, 0, 255)
	pts, _, err := tx.RangeSearch(full)
	if err != nil || fmt.Sprint(pts) != want {
		t.Fatalf("tx view %v (%v), want %s", pts, err, want)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if pts, _, err = db.RangeSearch(full); err != nil || fmt.Sprint(pts) != want {
		t.Fatalf("committed %v (%v), want %s", pts, err, want)
	}
}

// txViewReader is what a transaction and a database both answer.
type txViewReader interface {
	RangeSearch(probe.Box, ...probe.QueryOption) ([]probe.Point, probe.QueryStats, error)
	Scan(func(probe.Point) bool) error
	Len() int
	Nearest([]uint32, int, probe.Metric, ...probe.QueryOption) ([]probe.Neighbor, probe.QueryStats, error)
	Query(context.Context, string) (*probe.QueryResult, error)
}

// txViewReads are the reads TestTxViewMatchesCommitted makes, each a
// label and the text of its answer.
type txViewReads struct {
	boxes   []probe.Box
	queries [][]uint32
	sql     []string
}

func (rs *txViewReads) run(t *testing.T, r txViewReader) (out [][2]string) {
	t.Helper()
	add := func(label string, v any, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out = append(out, [2]string{label, fmt.Sprint(v)})
	}
	for _, b := range rs.boxes {
		pts, _, err := r.RangeSearch(b)
		add(fmt.Sprintf("range %v", b), pts, err)
	}
	var all []probe.Point
	err := r.Scan(func(p probe.Point) bool { all = append(all, p); return true })
	add("scan", all, err)
	n := r.Len()
	add("len", n, nil)
	for _, q := range rs.queries {
		for _, m := range []int{1, 8, n + 3} {
			for _, metric := range []probe.Metric{probe.Chebyshev, probe.Euclidean} {
				nbs, _, err := r.Nearest(q, m, metric)
				add(fmt.Sprintf("nearest %v m=%d %v", q, m, metric), nbs, err)
			}
		}
	}
	for _, sql := range rs.sql {
		res, err := r.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		add(sql, res.Rows, nil)
	}
	return out
}

// TestTxViewMatchesCommitted: every read of a transaction equals the
// same read of the database once the transaction's write-set commits.
// Seeded write-sets on a bulk-loaded database and on an empty one mix
// inserts, deletes of snapshot points, deletes then reinserts,
// inserts then deletes, and ids sharing a pixel; the reads are range
// searches over random, empty and whole boxes, a scan, Len, NEAREST
// for 1, 8 and more than Len neighbours under both metrics, and SQL: a
// COUNT, an id scan with ORDER BY and LIMIT, a NEAREST and a region
// JOIN.
func TestTxViewMatchesCommitted(t *testing.T) {
	for seed := int64(0); seed < txViewSeeds; seed++ {
		for _, bulk := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/bulk=%v", seed, bulk), func(t *testing.T) {
				runTxViewSeed(t, seed, bulk)
			})
		}
	}
}

func runTxViewSeed(t *testing.T, seed int64, bulk bool) {
	rng := rand.New(rand.NewSource(seed))
	g := probe.MustGrid(2, 8)
	pixel := func() (uint32, uint32) { return uint32(rng.Intn(256)), uint32(rng.Intn(256)) }
	var base []probe.Point
	opts := []probe.Option{probe.WithLeafCapacity(4 + rng.Intn(8)), probe.WithPoolPages(64)}
	if bulk {
		for i := 0; i < 20+rng.Intn(80); i++ {
			x, y := pixel()
			if i > 0 && rng.Intn(6) == 0 { // a second id on a pixel
				x, y = base[i-1].Coords[0], base[i-1].Coords[1]
			}
			base = append(base, probe.Pt2(uint64(i+1), x, y))
		}
		opts = append(opts, probe.WithBulkLoad(base))
	}
	db, err := probe.Open(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()

	// view models the transaction's view, to check each write's answer.
	view := map[txViewKey]bool{}
	for _, p := range base {
		view[txViewKey{p.ID, p.Coords[0], p.Coords[1]}] = true
	}
	write := func(p probe.Point, del bool) {
		t.Helper()
		k := txViewKey{p.ID, p.Coords[0], p.Coords[1]}
		had := view[k]
		if del {
			ok, err := tx.Delete(p)
			if err != nil || ok != had {
				t.Fatalf("delete %v: %v %v, want %v", p, ok, err, had)
			}
			delete(view, k)
			return
		}
		err := tx.Insert(p)
		if had != errors.Is(err, btree.ErrDuplicateKey) || (!had && err != nil) {
			t.Fatalf("insert %v: %v (present %v)", p, err, had)
		}
		view[k] = true
	}
	nextID := uint64(1000)
	fresh := func(x, y uint32) probe.Point { nextID++; return probe.Pt2(nextID, x, y) }
	ops := 5 + rng.Intn(40)
	for i := 0; i < ops; i++ {
		if i == ops/2 { // a read between writes: the delta is sorted again after it
			if _, _, err := tx.RangeSearch(probe.Box2(0, 255, 0, 255)); err != nil {
				t.Fatal(err)
			}
		}
		var victim probe.Point
		if len(base) > 0 {
			victim = base[rng.Intn(len(base))]
		}
		switch op := rng.Intn(7); {
		case op <= 1 || len(base) == 0 && op <= 4:
			write(fresh(pixel()), false)
		case op == 2:
			write(victim, true)
		case op == 3:
			write(victim, true)
			write(victim, false)
		case op == 4:
			p := fresh(pixel())
			write(p, false)
			write(p, true)
		case op == 5: // two ids on one pixel, one of them maybe the snapshot's
			x, y := pixel()
			if len(base) > 0 && rng.Intn(2) == 0 {
				x, y = victim.Coords[0], victim.Coords[1]
			}
			write(fresh(x, y), false)
			write(fresh(x, y), false)
		default: // a no-op: a duplicate insert or a delete of an absent key
			if len(base) > 0 && rng.Intn(2) == 0 {
				write(victim, false)
			} else {
				write(fresh(pixel()), true)
			}
		}
	}

	reads := &txViewReads{}
	for i := 0; i < 6; i++ {
		x0, y0 := pixel()
		x1, y1 := pixel()
		reads.boxes = append(reads.boxes, probe.Box2(min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)))
	}
	for {
		x, y := pixel()
		if !occupied(view, x, y) {
			reads.boxes = append(reads.boxes, probe.Box2(x, x, y, y))
			break
		}
	}
	reads.boxes = append(reads.boxes, probe.Box2(0, 255, 0, 255))
	for i := 0; i < 3; i++ {
		x, y := pixel()
		reads.queries = append(reads.queries, []uint32{x, y})
	}
	b := reads.boxes[0]
	r2 := reads.boxes[1]
	q := reads.queries[0]
	reads.sql = []string{
		"SELECT COUNT(*) AS n FROM points",
		fmt.Sprintf("SELECT id FROM points WHERE INTERSECTS(BOX(%d, %d, %d, %d)) ORDER BY id LIMIT 7", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1]),
		fmt.Sprintf("SELECT id, x, y, dist FROM points WHERE NEAREST(POINT(%d, %d), 5)", q[0], q[1]),
		fmt.Sprintf("SELECT region, id, x, y FROM points JOIN REGIONS(1 BOX(%d, %d, %d, %d), 2 BOX(%d, %d, %d, %d), 3 BOX(0, 255, 0, 255)) ON INTERSECTS",
			b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], r2.Lo[0], r2.Hi[0], r2.Lo[1], r2.Hi[1]),
	}

	inTx := reads.run(t, tx)
	if got := tx.Len(); got != len(view) {
		t.Fatalf("tx Len %d, model %d", got, len(view))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	committed := reads.run(t, db)
	for i := range committed {
		if inTx[i] != committed[i] {
			t.Fatalf("%s:\n  tx        %s\n  committed %s", committed[i][0], inTx[i][1], committed[i][1])
		}
	}
}

// txViewKey is a point's identity in the view model.
type txViewKey struct {
	id   uint64
	x, y uint32
}

func occupied(view map[txViewKey]bool, x, y uint32) bool {
	for k := range view {
		if k.x == x && k.y == y {
			return true
		}
	}
	return false
}
