package probe_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"probe"
)

// explainTestDB builds a deterministic 2000-point database on a
// 1024x1024 grid so the planner's estimates — and with them the
// EXPLAIN rendering — are byte-stable across runs.
func explainTestDB(t *testing.T) *probe.DB {
	t.Helper()
	g, err := probe.NewGrid(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	db, err := probe.Open(g, probe.WithLeafCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	pts := make([]probe.Point, 2000)
	for i := range pts {
		x := uint32((i*389 + 17) % 1024)
		y := uint32((i*577 + 29) % 1024)
		pts[i] = probe.Pt2(uint64(i+1), x, y)
	}
	if err := db.InsertAll(pts); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainGolden byte-compares EXPLAIN over the access-path
// matrix against testdata/explain (regenerate with -update): the
// index scan of a box and of the whole table (estimated at every leaf
// once), nearest, the region join (one merge, so one line on the DB
// and in a transaction alike), grouping/ordering/limit/distinct
// operator stacks, the provably empty plan, and the transaction view's
// cost-model-free range line.
func TestExplainGolden(t *testing.T) {
	db := explainTestDB(t)
	ctx := context.Background()

	cases := []struct {
		name string
		sql  string
		tx   bool
	}{
		{name: "index_scan", sql: "SELECT id, x, y FROM points WHERE CONTAINS(BOX(0, 99, 0, 99)) AND id != 7"},
		{name: "whole_table", sql: "SELECT * FROM points"},
		{name: "nearest", sql: "SELECT id, dist FROM points WHERE NEAREST(POINT(512, 512), 5)"},
		{name: "join_two_regions", sql: "SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 40, 0, 40), 2 BOX(100, 140, 100, 140)) ON INTERSECTS"},
		{name: "join_six_regions", sql: "SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(1 BOX(0, 1023, 0, 511), 2 BOX(0, 1023, 512, 1023), 3 BOX(0, 511, 0, 1023), 4 BOX(512, 1023, 0, 1023), 5 BOX(128, 895, 128, 895), 6 BOX(0, 1023, 0, 1023)) ON INTERSECTS GROUP BY region"},
		{name: "group_order_limit", sql: "SELECT x, COUNT(*) AS n FROM points WHERE CONTAINS(BOX(0, 511, 0, 511)) GROUP BY x ORDER BY n DESC, x LIMIT 5"},
		{name: "distinct_order", sql: "SELECT DISTINCT x FROM points WHERE x < 50 AND y >= 100 ORDER BY x"},
		{name: "empty", sql: "SELECT id FROM points WHERE x > 100 AND x < 50"},
		{name: "tx_index_scan", sql: "SELECT id FROM points WHERE CONTAINS(BOX(0, 99, 0, 99))", tx: true},
		{name: "tx_join", sql: "SELECT region, id FROM points JOIN REGIONS(1 BOX(0, 40, 0, 40)) ON INTERSECTS", tx: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res *probe.QueryResult
			var err error
			if tc.tx {
				tx, txErr := db.Begin(ctx)
				if txErr != nil {
					t.Fatal(txErr)
				}
				defer tx.Rollback()
				res, err = tx.Query(ctx, "EXPLAIN "+tc.sql)
			} else {
				res, err = db.Query(ctx, "EXPLAIN "+tc.sql)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := res.Explain
			if strings.Contains(got, "seq scan") {
				t.Errorf("EXPLAIN names a seq scan, which nothing runs:\n%s", got)
			}
			if want := fmt.Sprintf("(est. %d pages)", db.LeafPages()); tc.name == "whole_table" && !strings.Contains(got, want) {
				t.Errorf("whole-table estimate is not the %d leaves:\n%s", db.LeafPages(), got)
			}
			path := filepath.Join("testdata", "explain", tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN rendering drifted for %q:\n--- got ---\n%s--- want ---\n%s", tc.sql, got, want)
			}
		})
	}
}
