package query

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"probe/internal/core"
	"probe/internal/geom"
	"probe/internal/planner"
	"probe/internal/relation"
	"probe/internal/zorder"
)

// fakeEngine is a cost-model-free Engine over an in-memory point
// slice, standing in for a transaction view.
type fakeEngine struct {
	g     zorder.Grid
	pts   []geom.Point
	calls int // RangeFunc, Join and Nearest calls so far
}

func (e *fakeEngine) Grid() zorder.Grid     { return e.g }
func (e *fakeEngine) Table() *planner.Table { return nil }
func (e *fakeEngine) RangeFunc(ctx context.Context, box geom.Box, fn func(geom.Point) bool) error {
	e.calls++
	for _, p := range e.pts {
		if box.ContainsPoint(p.Coords) && !fn(p) {
			return nil
		}
	}
	return nil
}

func (e *fakeEngine) Join(ctx context.Context, regions []geom.Box, fn func(int, geom.Point)) error {
	e.calls++
	for i, r := range regions {
		for _, p := range e.pts {
			if r.ContainsPoint(p.Coords) {
				fn(i, p)
			}
		}
	}
	return nil
}

func (e *fakeEngine) Nearest(ctx context.Context, q []uint32, k int) ([]core.Neighbor, error) {
	e.calls++
	return nil, errors.New("fakeEngine: no nearest")
}

func mustCompile(t *testing.T, g zorder.Grid, sql string) *Plan {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	p, err := Compile(g, st.Select)
	if err != nil {
		t.Fatalf("Compile(%q): %v", sql, err)
	}
	return p
}

// TestCompileScanBoxFolding: every box predicate and foldable
// coordinate comparison tightens the index search box; contradictions
// make the plan provably empty instead of scanning.
func TestCompileScanBoxFolding(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	cases := []struct {
		sql    string
		lo, hi []uint32
		empty  bool
	}{
		{sql: "SELECT * FROM points", lo: []uint32{0, 0}, hi: []uint32{1023, 1023}},
		{sql: "SELECT * FROM points WHERE CONTAINS(BOX(10, 90, 20, 80))", lo: []uint32{10, 20}, hi: []uint32{90, 80}},
		{sql: "SELECT * FROM points WHERE CONTAINS(BOX(10, 90, 20, 80)) AND INTERSECTS(BOX(50, 200, 0, 60))",
			lo: []uint32{50, 20}, hi: []uint32{90, 60}},
		{sql: "SELECT * FROM points WHERE x >= 100 AND x < 200 AND y = 7", lo: []uint32{100, 7}, hi: []uint32{199, 7}},
		{sql: "SELECT * FROM points WHERE x > 100 AND x <= 200", lo: []uint32{101, 0}, hi: []uint32{200, 1023}},
		{sql: "SELECT * FROM points WHERE x > 100 AND x < 50", empty: true},
		{sql: "SELECT * FROM points WHERE CONTAINS(BOX(0, 40, 0, 40)) AND CONTAINS(BOX(60, 90, 0, 40))", empty: true},
	}
	for _, tc := range cases {
		p := mustCompile(t, g, tc.sql)
		if p.empty != tc.empty {
			t.Errorf("%q: empty = %v, want %v", tc.sql, p.empty, tc.empty)
			continue
		}
		if tc.empty {
			continue
		}
		if !reflect.DeepEqual(p.scanBox.Lo, tc.lo) || !reflect.DeepEqual(p.scanBox.Hi, tc.hi) {
			t.Errorf("%q: scan box %v..%v, want %v..%v", tc.sql, p.scanBox.Lo, p.scanBox.Hi, tc.lo, tc.hi)
		}
	}
}

// TestCompileResidualStaysResidual: != and id comparisons cannot fold
// into the scan box and must survive as residual filters.
func TestCompileResidualStaysResidual(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	p := mustCompile(t, g, "SELECT * FROM points WHERE x != 7 AND id >= 3")
	if len(p.residual) != 2 {
		t.Fatalf("residual count %d, want 2", len(p.residual))
	}
	if p.scanBox.Lo[0] != 0 || p.scanBox.Hi[0] != 1023 {
		t.Fatalf("unfoldable predicates narrowed the scan box: %v", p.scanBox)
	}
	if p.filter == nil {
		t.Fatal("no compiled filter for residual predicates")
	}
}

// TestCompileStreamable: only pure scans stream; grouping, ordering,
// DISTINCT, NEAREST, and JOIN all materialize.
func TestCompileStreamable(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT * FROM points WHERE CONTAINS(BOX(0, 100, 0, 100)) LIMIT 5", true},
		{"SELECT id FROM points WHERE x > 3", true},
		{"SELECT id FROM points ORDER BY id", false},
		{"SELECT DISTINCT x FROM points", false},
		{"SELECT COUNT(*) FROM points", false},
		{"SELECT id, dist FROM points WHERE NEAREST(POINT(1, 1), 3)", false},
		{"SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 10, 0, 10)) ON INTERSECTS", false},
	}
	for _, tc := range cases {
		if p := mustCompile(t, g, tc.sql); p.streamable != tc.want {
			t.Errorf("%q: streamable = %v, want %v", tc.sql, p.streamable, tc.want)
		}
	}
}

// TestCompileErrors: every rejected statement fails with a typed
// KindPlan error naming the offending symbol.
func TestCompileErrors(t *testing.T) {
	g := zorder.MustGrid(2, 10)
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT * FROM elsewhere", "unknown table"},
		{"SELECT nope FROM points", `unknown column "nope"`},
		{"SELECT id FROM points WHERE z = 1", `unknown column "z"`},
		{"SELECT * FROM points WHERE CONTAINS(BOX(0, 10, 0, 10, 0, 10))", "bounds"},
		{"SELECT * FROM points WHERE CONTAINS(BOX(10, 5, 0, 10))", "lo"},
		{"SELECT * FROM points WHERE CONTAINS(BOX(0, 5000, 0, 10))", "outside the grid"},
		{"SELECT * FROM points WHERE NEAREST(POINT(5000, 0), 3)", "outside the grid"},
		{"SELECT * FROM points WHERE NEAREST(POINT(1, 1), 2) AND NEAREST(POINT(2, 2), 2)", "at most one NEAREST"},
		{"SELECT id FROM points JOIN REGIONS(1 BOX(0, 1, 0, 1)) ON INTERSECTS WHERE NEAREST(POINT(1, 1), 2)", "cannot be combined"},
		{"SELECT region FROM points JOIN REGIONS(1 BOX(0, 1, 0, 1), 1 BOX(2, 3, 2, 3)) ON INTERSECTS", "duplicate region"},
		{"SELECT * FROM points GROUP BY x", "GROUP BY"},
		{"SELECT x, COUNT(*) FROM points GROUP BY y", "must appear in GROUP BY"},
		{"SELECT COUNT(*) FROM points GROUP BY nope", `unknown GROUP BY column "nope"`},
		{"SELECT id FROM points ORDER BY x", "not in the output"},
		{"SELECT id, id FROM points", "duplicate output column"},
		{"SELECT SUM(id) FROM points", "SUM over"},
	}
	for _, tc := range cases {
		st, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.sql, err)
		}
		_, err = Compile(g, st.Select)
		if err == nil {
			t.Errorf("%q compiled, want plan error %q", tc.sql, tc.want)
			continue
		}
		var qe *Error
		if !errors.As(err, &qe) || qe.Kind != KindPlan {
			t.Errorf("%q: error %v is not KindPlan", tc.sql, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.sql, err, tc.want)
		}
	}
}

// TestRunAgainstFakeEngine executes representative plans against the
// nil-table engine, pinning tuple shapes and operator stacking
// without a database.
func TestRunAgainstFakeEngine(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	eng := &fakeEngine{g: g, pts: []geom.Point{
		{ID: 1, Coords: []uint32{1, 1}},
		{ID: 2, Coords: []uint32{2, 3}},
		{ID: 3, Coords: []uint32{2, 3}}, // same cell, distinct id
		{ID: 4, Coords: []uint32{8, 8}},
	}}
	ctx := context.Background()
	collect := func(sql string) []relation.Tuple {
		t.Helper()
		p := mustCompile(t, g, sql)
		var rows []relation.Tuple
		if err := p.Run(ctx, eng, func(tp relation.Tuple) bool {
			rows = append(rows, tp)
			return true
		}); err != nil {
			t.Fatalf("Run(%q): %v", sql, err)
		}
		return rows
	}

	rows := collect("SELECT id FROM points WHERE CONTAINS(BOX(0, 3, 0, 3)) ORDER BY id DESC")
	want := []relation.Tuple{{uint64(3)}, {uint64(2)}, {uint64(1)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("ordered scan: got %v, want %v", rows, want)
	}

	rows = collect("SELECT DISTINCT x, y FROM points WHERE CONTAINS(BOX(0, 3, 0, 3)) ORDER BY x")
	want = []relation.Tuple{{int64(1), int64(1)}, {int64(2), int64(3)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("distinct: got %v, want %v", rows, want)
	}

	rows = collect("SELECT COUNT(*) AS n, MAX(x) AS mx FROM points")
	want = []relation.Tuple{{int64(4), int64(8)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("aggregate: got %v, want %v", rows, want)
	}

	rows = collect("SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(7 BOX(0, 3, 0, 3), 9 BOX(0, 15, 0, 15)) ON INTERSECTS GROUP BY region ORDER BY region")
	want = []relation.Tuple{{uint64(7), int64(3)}, {uint64(9), int64(4)}}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("join group: got %v, want %v", rows, want)
	}

	if rows = collect("SELECT id FROM points WHERE x > 10 AND x < 5"); len(rows) != 0 {
		t.Errorf("empty plan emitted %v", rows)
	}
}

// TestLimitZeroIssuesNoScan: LIMIT 0 answers without touching the
// engine, whether the plan streams or needs its whole input.
func TestLimitZeroIssuesNoScan(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	eng := &fakeEngine{g: g, pts: []geom.Point{{ID: 1, Coords: []uint32{1, 1}}}}
	for _, sql := range []string{
		"SELECT id FROM points LIMIT 0",
		"SELECT id FROM points ORDER BY id LIMIT 0",
		"SELECT COUNT(*) FROM points LIMIT 0",
		"SELECT id, dist FROM points WHERE NEAREST(POINT(1, 1), 3) LIMIT 0",
		"SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 10, 0, 10)) ON INTERSECTS LIMIT 0",
	} {
		err := mustCompile(t, g, sql).Run(context.Background(), eng, func(relation.Tuple) bool {
			t.Errorf("%q emitted a row", sql)
			return true
		})
		if err != nil || eng.calls != 0 {
			t.Errorf("%q: err %v, %d engine calls, want none", sql, err, eng.calls)
		}
		eng.calls = 0
	}
}

// TestEmittedRowsAreTheCallersToKeep: rows of one run share backing
// arrays, so each must be cut with its capacity clipped: growing a
// kept row reallocates instead of writing into its neighbour.
func TestEmittedRowsAreTheCallersToKeep(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	eng := &fakeEngine{g: g}
	for i := 0; i < 10; i++ {
		eng.pts = append(eng.pts, geom.Point{ID: uint64(i), Coords: []uint32{uint32(i), 0}})
	}
	for _, sql := range []string{"SELECT id, x FROM points", "SELECT id, x FROM points ORDER BY id"} {
		var rows []relation.Tuple
		if err := mustCompile(t, g, sql).Run(context.Background(), eng, func(tp relation.Tuple) bool {
			rows = append(rows, tp)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if cap(rows[i]) != len(rows[i]) {
				t.Fatalf("%q: row %d has len %d, cap %d", sql, i, len(rows[i]), cap(rows[i]))
			}
			_ = append(rows[i], "overflow")
		}
		for i, row := range rows {
			if want := (relation.Tuple{uint64(i), int64(i)}); !reflect.DeepEqual(row, want) {
				t.Errorf("%q: row %d is %v after its neighbours grew, want %v", sql, i, row, want)
			}
		}
	}
}
