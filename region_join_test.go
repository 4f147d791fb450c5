package probe_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"probe"
)

// latticeDB loads the lattice of every step-th pixel of a 256x256 grid
// into small leaves: 4 096 points at step 4, 1 024 at step 8.
func latticeDB(t *testing.T, step uint32) *probe.DB {
	t.Helper()
	var pts []probe.Point
	for x := uint32(0); x < 256; x += step {
		for y := uint32(0); y < 256; y += step {
			pts = append(pts, probe.Pt2(uint64(len(pts)+1), x, y))
		}
	}
	// A pool that holds the whole tree: a miss would allocate a frame.
	db, err := probe.Open(probe.MustGrid(2, 8), probe.WithPageSize(512), probe.WithLeafCapacity(8),
		probe.WithPoolPages(1024), probe.WithBulkLoad(pts))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// joinSQL is the JOIN of the regions, one row per (region, point).
func joinSQL(regions []probe.Box, ids []uint64) string {
	parts := make([]string, len(regions))
	for i, b := range regions {
		parts[i] = fmt.Sprintf("%d BOX(%d, %d, %d, %d)", ids[i], b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1])
	}
	return "SELECT region, id, x, y FROM points JOIN REGIONS(" + strings.Join(parts, ", ") + ") ON INTERSECTS"
}

// TestPageGateRegionJoin pins the leaves a region join reads: Section
// 4's merge runs one forward cursor against the regions' elements in z
// order, seeking over every gap, so it reads each leaf an element
// reaches once and no other.
func TestPageGateRegionJoin(t *testing.T) {
	ctx := context.Background()
	pages := func(db *probe.DB, sql string) int {
		t.Helper()
		res, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.DataPages
	}
	golden := explainTestDB(t)
	lattice := latticeDB(t, 4)
	for _, c := range []struct {
		name string
		db   *probe.DB
		sql  string
		want int
	}{
		{"six regions covering the grid", golden, "SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(1 BOX(0, 1023, 0, 511), 2 BOX(0, 1023, 512, 1023), 3 BOX(0, 511, 0, 1023), 4 BOX(512, 1023, 0, 1023), 5 BOX(128, 895, 128, 895), 6 BOX(0, 1023, 0, 1023)) ON INTERSECTS GROUP BY region", 173},
		{"two 41x41 regions", golden, "SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 40, 0, 40), 2 BOX(100, 140, 100, 140)) ON INTERSECTS", 5},
		// The 4x4 region nests in the 8x8 one, and both regions' points
		// lie in the grid's first leaf: one range scan per region would
		// read it twice.
		{"nested regions", lattice, "SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(1 BOX(0, 3, 0, 3), 2 BOX(0, 7, 0, 7)) ON INTERSECTS WHERE id = 1 GROUP BY region", 1},
	} {
		if got := pages(c.db, c.sql); got != c.want {
			t.Errorf("%s: %d data pages, want %d", c.name, got, c.want)
		}
	}
}

// TestRegionJoinProperty runs 200 seeded region sets of 1-8 regions —
// disjoint, nested, overlapping and identical boxes — on the DB and in
// a transaction with buffered inserts and deletes. The rows must equal
// brute force, ordered by region and id with ties in z order, and the
// join must read no more leaves than the regions' own range searches
// together.
func TestRegionJoinProperty(t *testing.T) {
	db := explainTestDB(t)
	g := db.Grid()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(34))
	randBox := func() probe.Box {
		w, h := uint32(1+rng.Intn(400)), uint32(1+rng.Intn(400))
		x, y := uint32(rng.Intn(1024-int(w))), uint32(rng.Intn(1024-int(h)))
		return probe.Box2(x, x+w, y, y+h)
	}
	// brute pairs every point of the view with every region holding it.
	brute := func(view []probe.Point, regions []probe.Box, ids []uint64) [][4]uint64 {
		var rows [][5]uint64 // region, id, x, y, z
		for i, b := range regions {
			for _, p := range view {
				if b.ContainsPoint(p.Coords) {
					rows = append(rows, [5]uint64{ids[i], p.ID, uint64(p.Coords[0]), uint64(p.Coords[1]), g.ShuffleKey(p.Coords)})
				}
			}
		}
		slices.SortFunc(rows, func(a, b [5]uint64) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]), cmp.Compare(a[4], b[4]))
		})
		out := make([][4]uint64, len(rows))
		for i, r := range rows {
			out[i] = [4]uint64(r[:4])
		}
		return out
	}
	check := func(set int, side string, res *probe.QueryResult, want [][4]uint64, maxPages int) {
		t.Helper()
		if len(res.Rows) != len(want) {
			t.Fatalf("set %d, %s: %d rows, want %d", set, side, len(res.Rows), len(want))
		}
		for i, r := range res.Rows {
			got := [4]uint64{r[0].(uint64), r[1].(uint64), uint64(r[2].(int64)), uint64(r[3].(int64))}
			if got != want[i] {
				t.Fatalf("set %d, %s: row %d is %v, want %v", set, side, i, got, want[i])
			}
		}
		if res.Stats.DataPages > maxPages {
			t.Errorf("set %d, %s: %d data pages, more than the regions' own %d", set, side, res.Stats.DataPages, maxPages)
		}
	}
	full := probe.Box2(0, 1023, 0, 1023)
	for set := 0; set < 200; set++ {
		n := 1 + rng.Intn(8)
		regions := make([]probe.Box, n)
		ids := make([]uint64, n)
		for i := range regions {
			ids[i] = uint64(100 - 7*i) // not in z or id order of the boxes
			switch k := rng.Intn(4); {
			case i == 0 || k == 0: // disjoint or overlapping: anywhere
				regions[i] = randBox()
			case k == 1: // identical to an earlier one
				regions[i] = regions[rng.Intn(i)]
			default: // nested in an earlier one
				o := regions[rng.Intn(i)]
				x0 := o.Lo[0] + uint32(rng.Intn(int(o.Hi[0]-o.Lo[0]+1)))
				y0 := o.Lo[1] + uint32(rng.Intn(int(o.Hi[1]-o.Lo[1]+1)))
				regions[i] = probe.Box2(x0, x0+uint32(rng.Intn(int(o.Hi[0]-x0+1))), y0, y0+uint32(rng.Intn(int(o.Hi[1]-y0+1))))
			}
		}
		own := 0
		for _, b := range regions {
			_, qs, err := db.RangeSearch(b)
			if err != nil {
				t.Fatal(err)
			}
			own += qs.DataPages
		}
		sql := joinSQL(regions, ids)
		all, _, err := db.RangeSearch(full)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		check(set, "db", res, brute(all, regions, ids), own)

		// The transaction deletes some points, inserts new ones and
		// moves some ids to a second z value, all unseen by the DB.
		type key struct{ id, x, y uint32 }
		keyOf := func(p probe.Point) key { return key{uint32(p.ID), p.Coords[0], p.Coords[1]} }
		inView := make(map[key]probe.Point, len(all))
		for _, p := range all {
			inView[keyOf(p)] = p
		}
		tx, err := db.Begin(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			gone := all[rng.Intn(len(all))]
			if ok, err := tx.Delete(gone); err != nil {
				t.Fatal(err)
			} else if ok {
				delete(inView, keyOf(gone))
			}
			b := regions[rng.Intn(n)]
			x := b.Lo[0] + uint32(rng.Intn(int(b.Hi[0]-b.Lo[0]+1)))
			y := b.Lo[1] + uint32(rng.Intn(int(b.Hi[1]-b.Lo[1]+1)))
			id := uint64(5000 + set*20 + i)
			if i%2 == 0 {
				id = all[rng.Intn(len(all))].ID
			}
			p := probe.Pt2(id, x, y)
			if err := tx.Insert(p); err == nil {
				inView[keyOf(p)] = p
			} else if !strings.Contains(err.Error(), "duplicate") {
				t.Fatal(err)
			}
		}
		view := make([]probe.Point, 0, len(inView))
		for _, p := range inView {
			view = append(view, p)
		}
		res, err = tx.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		check(set, "tx", res, brute(view, regions, ids), own)
		tx.Rollback()
	}
}

// TestTxJoinTieOrder: a transaction that gives a snapshot point's id a
// second z value in the same region sees the two rows in z order, as
// the DB does once it commits.
func TestTxJoinTieOrder(t *testing.T) {
	db := explainTestDB(t)
	ctx := context.Background()
	const sql = "SELECT region, id, x, y FROM points JOIN REGIONS(1 BOX(0, 1023, 0, 1023), 2 BOX(0, 511, 0, 511)) ON INTERSECTS"
	pts, _, err := db.RangeSearch(probe.Box2(256, 511, 256, 511))
	if err != nil || len(pts) == 0 {
		t.Fatal(len(pts), err)
	}
	p := pts[len(pts)-1] // the last in z order: a copy at a lower z sorts before it
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Insert(probe.Pt2(p.ID, 1, 1)); err != nil {
		t.Fatal(err)
	}
	inTx, err := tx.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(inTx.Rows) != len(after.Rows) {
		t.Fatalf("%d rows in the tx, %d in the committed DB", len(inTx.Rows), len(after.Rows))
	}
	for i := range after.Rows {
		if fmt.Sprint(inTx.Rows[i]) != fmt.Sprint(after.Rows[i]) {
			t.Fatalf("row %d is %v in the tx, %v in the committed DB", i, inTx.Rows[i], after.Rows[i])
		}
	}
	var rows []probe.QueryRow
	for _, r := range after.Rows {
		if r[1].(uint64) == p.ID {
			rows = append(rows, r)
		}
	}
	if len(rows) != 4 || rows[0][2].(int64) != 1 || rows[2][2].(int64) != 1 {
		t.Fatalf("id %d's rows %v, want (1, 1) before %v in each region", p.ID, rows, p.Coords)
	}
}

// TestThinRegionJoin: a region one pixel wide down a 2 x 32 grid has
// 2^31 elements, yet its join, on the DB and in a transaction, prepares
// and runs in a moment and generates a handful of them: the merge
// decomposes a region only as far as the points reach, and neither
// Prepare nor EXPLAIN decomposes at all.
func TestThinRegionJoin(t *testing.T) {
	const top = 1<<32 - 1
	db, err := probe.Open(probe.MustGrid(2, 32), probe.WithBulkLoad([]probe.Point{
		probe.Pt2(1, 0, 7), probe.Pt2(2, 1, 7), probe.Pt2(3, 0, 1<<31), probe.Pt2(4, top, 5),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	sql := fmt.Sprintf("SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 0, 0, %d), 2 BOX(0, %d, 5, 5)) ON INTERSECTS", top, top)
	ex, err := db.Query(ctx, "EXPLAIN "+sql)
	if err != nil || !strings.Contains(ex.Explain, "spatial merge join: 2 regions against points in z order") {
		t.Fatalf("EXPLAIN: %v, %v", ex, err)
	}
	res, err := db.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[1 1] [1 3] [2 4]]" {
		t.Errorf("db rows %s", got)
	}
	if res.Stats.Elements > 16 {
		t.Errorf("db: %d elements generated, want a handful", res.Stats.Elements)
	}
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Insert(probe.Pt2(5, 0, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(probe.Pt2(3, 0, 1<<31)); err != nil {
		t.Fatal(err)
	}
	res, err = tx.Query(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[1 1] [1 5] [2 4] [2 5]]" {
		t.Errorf("tx rows %s", got)
	}
}

// BenchmarkRegionJoin times JOIN statements through db.Query on the
// points of explainTestDB: the two golden joins, and 64 disjoint
// 20 x 20 regions on a lattice, where many regions wait on the merge.
func BenchmarkRegionJoin(b *testing.B) {
	db, err := probe.Open(probe.MustGrid(2, 10), probe.WithLeafCapacity(16))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	pts := make([]probe.Point, 2000)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32((i*389+17)%1024), uint32((i*577+29)%1024))
	}
	if err := db.InsertAll(pts); err != nil {
		b.Fatal(err)
	}
	var lattice []probe.Box
	var ids []uint64
	for x := uint32(0); x < 1024; x += 128 {
		for y := uint32(0); y < 1024; y += 128 {
			lattice = append(lattice, probe.Box2(x, x+19, y, y+19))
			ids = append(ids, uint64(len(ids)+1))
		}
	}
	ctx := context.Background()
	for _, c := range []struct{ name, sql string }{
		{"two_regions", "SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 40, 0, 40), 2 BOX(100, 140, 100, 140)) ON INTERSECTS"},
		{"six_regions", "SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(1 BOX(0, 1023, 0, 511), 2 BOX(0, 1023, 512, 1023), 3 BOX(0, 511, 0, 1023), 4 BOX(512, 1023, 0, 1023), 5 BOX(128, 895, 128, 895), 6 BOX(0, 1023, 0, 1023)) ON INTERSECTS GROUP BY region"},
		{"lattice_64", joinSQL(lattice, ids)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(ctx, c.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
