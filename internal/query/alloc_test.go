//go:build !race

package query

import (
	"context"
	"testing"

	"probe/internal/geom"
	"probe/internal/relation"
	"probe/internal/zorder"
)

// gateEngine holds n points on the diagonal from (300, 300), ids from
// 1000: every cell is 256 or more, so boxing one costs an allocation.
// The engine itself allocates nothing, so the counts below are the
// executor's alone.
func gateEngine(n int) *fakeEngine {
	eng := &fakeEngine{g: zorder.MustGrid(2, 12)}
	for i := 0; i < n; i++ {
		eng.pts = append(eng.pts, geom.Point{ID: uint64(1000 + i), Coords: []uint32{uint32(300 + i), uint32(300 + i)}})
	}
	return eng
}

func runAllocs(t *testing.T, eng *fakeEngine, sql string, wantRows int) float64 {
	t.Helper()
	p := mustCompile(t, eng.g, sql)
	rows := 0
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		rows = 0
		err = p.Run(context.Background(), eng, func(relation.Tuple) bool {
			rows++
			return true
		})
	})
	if err != nil || rows != wantRows {
		t.Fatalf("%q: %d rows, err %v, want %d rows", sql, rows, err, wantRows)
	}
	return allocs
}

// TestAllocGateQueryScan: what a streamed scan costs per emitted row.
// 100 rows of 3 cells are 300 boxings and 6 arena chunks (1, 3, 7, ...
// tuples); the other 3 are the run's own, whatever the number of rows:
// its state, the feed callback the engine is handed, and the test's
// emit. A scanned row that is not emitted costs nothing: 300 of the
// engine's 400 are not. Collected, the same rows cost their boxings,
// the run's state and feed callback, the kept cells (sized by the
// LIMIT) and the rows and values at their final count: 305. Exact
// counts, so the file is left out of -race builds; CI runs `-run
// TestAllocGate` as its own step.
func TestAllocGateQueryScan(t *testing.T) {
	const sql = "SELECT id, x, y FROM points WHERE CONTAINS(BOX(300, 399, 0, 4095))"
	eng := gateEngine(400)
	if got := runAllocs(t, eng, sql, 100); got != 309 {
		t.Errorf("a scan emitting 100 rows of 3 cells cost %v allocs, want 309", got)
	}
	p := mustCompile(t, eng.g, sql+" LIMIT 500")
	var rows []relation.Tuple
	var err error
	allocs := testing.AllocsPerRun(50, func() { rows, err = p.Collect(context.Background(), eng) })
	if err != nil || len(rows) != 100 {
		t.Fatalf("Collect: %d rows, err %v, want 100", len(rows), err)
	}
	if allocs != 305 {
		t.Errorf("collecting 100 rows of 3 cells cost %v allocs, want 305", allocs)
	}
}

// TestAllocGateQueryCount: a global aggregate allocates nothing per
// scanned row, so a box of 4N points costs what a box of N does: 7.
// The answer is 3 of them: the group record, the one-row order and
// the boxed count. The arena chunk it is cut from, the run's state,
// its feed callback and the test's emit are the other 4. A global
// aggregate has one group, so no map finds it.
func TestAllocGateQueryCount(t *testing.T) {
	eng := gateEngine(2000)
	small := runAllocs(t, eng, "SELECT COUNT(*) FROM points WHERE INTERSECTS(BOX(300, 799, 0, 4095))", 1)
	large := runAllocs(t, eng, "SELECT COUNT(*) FROM points WHERE INTERSECTS(BOX(300, 2299, 0, 4095))", 1)
	if small != large || small != 7 {
		t.Errorf("COUNT(*) over 500 points cost %v allocs, over 2000 %v: want 7 for both", small, large)
	}
}
