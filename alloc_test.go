//go:build !race

package probe_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"probe"
	"probe/internal/disk/faultfs"
)

// TestAllocGateDB is the alloc gate of the façade: what a read on a
// warm DB allocates, end to end. Each read pins its version by value
// in a recycled scratch, so the counts below are the answer and, for a
// statement, its parse, plan and rows; for EXPLAIN ANALYZE, its plan
// and trace. Exact counts, so the file is left out of -race builds; CI
// runs `-run TestAllocGate` as its own step.
func TestAllocGateDB(t *testing.T) {
	db := latticeDB(t, 4) // the table every gate but one reads
	ctx := context.Background()
	gate := func(name string, want float64, rows int, read func() int) {
		t.Helper()
		got := 0
		if allocs := testing.AllocsPerRun(100, func() { got = read() }); allocs != want {
			t.Errorf("%s: %v allocs, want %v", name, allocs, want)
		}
		if got != rows {
			t.Fatalf("%s: %d rows, want %d", name, got, rows)
		}
	}

	// RangeSearch: the points and one slab of their coordinates,
	// however many there are: 100 lattice points, then 1 000.
	small := probe.Box2(100, 139, 100, 139)
	for _, c := range []struct {
		box  probe.Box
		rows int
	}{{small, 100}, {probe.Box2(0, 99, 0, 159), 1000}} {
		gate("RangeSearch", 2, c.rows, func() int {
			pts, _, err := db.RangeSearch(c.box)
			if err != nil {
				t.Fatal(err)
			}
			return len(pts)
		})
	}
	// RangeSearchFunc hands out points the caller may keep, from
	// coordinate chunks of 8, 16, 32 and 64 points: 4.
	gate("RangeSearchFunc", 4, 100, func() int {
		st, err := db.RangeSearchFunc(small, func(probe.Point) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		return st.Results
	})
	// Nearest: the neighbors and one slab of their coordinates.
	q := []uint32{101, 101}
	gate("Nearest", 2, 8, func() int {
		nbs, _, err := db.Nearest(q, 8, probe.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		return len(nbs)
	})

	// EXPLAIN ANALYZE runs the index scan, its one plan, on the traced read
	// path and copies no table, so what it allocates is the same on 1 024
	// points (25 rows) as on 4 096 (100 rows). The trace: the root span,
	// the operator span and the root's child list (3). PlanRange: the
	// Plan, the description's string, its two boxed arguments, the name
	// and the box (a page count under 256 boxes for free), and the box's
	// rendering (10); the index prices the scan on the read's pinned
	// scratch and allocates nothing. The answer's
	// points and slab (2) and the ExplainResult (1). Folding the span
	// into the metrics allocates nothing: the registry resolves its
	// "index-scan.*" counters once (obs.Registry.AddSpan).
	for _, c := range []struct {
		db   *probe.DB
		rows int
	}{{latticeDB(t, 8), 25}, {db, 100}} {
		gate("ExplainAnalyze", 16, c.rows, func() int {
			res, err := c.db.ExplainAnalyze(small)
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Points)
		})
	}

	// A statement's fixed cost, both forms below. Prepare: the
	// Statement, its Select, the one select item, the box predicate,
	// the WHERE list and the box's bounds (parse, 6); the Plan, its
	// box-predicate list, output columns, output positions and scan
	// box (compile, 5); the Stmt. The run: the QueryResult, the engine
	// holding the pin, the run's state and its feed callback, the kept
	// output cells, the rows and the value slab (7).
	const box = "BOX(20, 219, 30, 199)" // 2 100 lattice points, ids from 321
	// COUNT adds its aggregate list and input positions (2), the group
	// record, the one-row order and the boxed count (3): 12+7+5.
	gate("COUNT", 24, 1, func() int {
		res, err := db.Query(ctx, "SELECT COUNT(*) FROM points WHERE INTERSECTS("+box+")")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	})
	// The id scan adds one boxed id per row: 12+7+100.
	gate("SELECT id LIMIT 100", 119, 100, func() int {
		res, err := db.Query(ctx, "SELECT id FROM points WHERE CONTAINS("+box+") LIMIT 100")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	})

	// A grouped JOIN, of two overlapping halves of the grid and of two
	// nested corners. Both keep the two rows of point 1 (one per region)
	// in one slab of cells; a row the filter fails is never kept.
	// Prepare, 32: the Statement, its Select, two select items, the
	// Join, two regions, their bounds, the WHERE list, its comparison and
	// the GROUP BY list (parse, 12); the Plan, the comparison list, the
	// region ids, the region boxes, and each box's bounds and its one
	// copy of both (6; no element: the merge decomposes), the residual list, the
	// filter's test, test list and closure (3), the group and aggregate
	// positions, output columns, output positions and aggregate list (5)
	// (compile, 19); the Stmt. The run, 24 whatever the shape: the
	// QueryResult, the engine, the run's state, the group map, its table
	// and two keys, the key buffer, the group records grown to 1, 2 and 4
	// cells, the kept output cells (2), the order, the rows and the value
	// slab (16); the slab and its append callback, the slab grown to 2,
	// 4, 8 and 16 cells (two rows and the one being tested), the sort's
	// offsets and the sorted slab (8). The merge itself allocates nothing:
	// its waiting and open elements live in the scratch the pin borrowed.
	join := func(regions string) func() int {
		sql := "SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(" + regions +
			") ON INTERSECTS WHERE id = 1 GROUP BY region"
		return func() int {
			res, err := db.Query(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			return len(res.Rows)
		}
	}
	// The halves' merge passes 3 072 points over 385 of the 512 leaves;
	// the corners' reads one leaf.
	gate("JOIN halves", 56, 2, join("1 BOX(0, 255, 0, 127), 2 BOX(0, 127, 0, 255)"))
	gate("JOIN nested corners", 56, 2, join("1 BOX(0, 3, 0, 3), 2 BOX(0, 7, 0, 7)"))
}

// TestAllocGateDurableInsert pins what an 8-point InsertAll allocates
// on a durable DB of 50 000 bulk-loaded points on 4 KiB pages, between
// checkpoints: bytes and allocations per call, averaged over 200 calls
// of random points. Most bytes are page images: the leaves the points
// land in encoded anew and their copy-on-write path. The store keeps
// the image the pool caches, not a copy of it
// (disk.RecoverableStore.WriteImage): 85 395 bytes and 115.3
// allocations, where a copy per Put made 126 120 and 124.5. Ceilings a
// little above those, so that the gate holds the copy out without
// pinning every buffer.
func TestAllocGateDurableInsert(t *testing.T) {
	const n, runs, maxBytes, maxAllocs = 50000, 200, 90_000, 120
	g := probe.MustGrid(2, 12)
	rng := rand.New(rand.NewSource(54))
	points := func(first uint64, m int) []probe.Point {
		pts := make([]probe.Point, m)
		for i := range pts {
			pts[i] = probe.Pt2(first+uint64(i), uint32(rng.Intn(4096)), uint32(rng.Intn(4096)))
		}
		return pts
	}
	db, err := probe.Open(g, probe.WithDurability("probe.db"), probe.WithFS(faultfs.New()), probe.WithBulkLoad(points(1, n)))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseReadOnly()
	batches := make([][]probe.Point, runs)
	for i := range batches {
		batches[i] = points(uint64(n+1+8*i), 8)
	}
	if err := db.InsertAll(points(1<<40, 8)); err != nil { // warm the pool's path
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		if err := db.InsertAll(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("8-point durable InsertAll: %.0f bytes, %.1f allocations", bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("8-point durable InsertAll: %.0f bytes and %.1f allocations, want at most %d and %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
