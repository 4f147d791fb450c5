package probe_test

import (
	"cmp"
	"context"
	"math/rand"
	"sort"
	"testing"

	"probe"
	"probe/internal/battery"
	"probe/internal/query"
	"probe/internal/relation"
)

// The wire battery compares the server with the library and the bench
// verifier the library with itself: both sides run the query executor,
// so neither can see it being wrong. This oracle shares no code with
// it. It interprets the parsed SELECT with the boxed-tuple operators of
// internal/relation (Select, GroupBy, Project, a stable sort) over
// base relations fetched by the typed calls.

// oracleSource is what DB and Tx have in common.
type oracleSource interface {
	RangeSearch(box probe.Box, opts ...probe.QueryOption) ([]probe.Point, probe.QueryStats, error)
	Nearest(q []uint32, m int, metric probe.Metric, opts ...probe.QueryOption) ([]probe.Neighbor, probe.QueryStats, error)
	Query(ctx context.Context, text string) (*probe.QueryResult, error)
}

func litBox(b query.BoxLit) probe.Box {
	return probe.Box2(b.Bounds[0], b.Bounds[1], b.Bounds[2], b.Bounds[3])
}

// oracleBase builds the statement's input relation on a 2-d grid: the
// points of the first box predicate's RangeSearch (z order), the k
// nearest with their distance, or every (region, point) pair found by
// testing every point against every region, by region and id.
func oracleBase(src oracleSource, full probe.Box, sel *query.Select) (*relation.Relation, error) {
	id := relation.Column{Name: "id", Type: relation.TID}
	x := relation.Column{Name: "x", Type: relation.TInt}
	y := relation.Column{Name: "y", Type: relation.TInt}
	box := full
	var near *query.NearestPred
	for _, pred := range sel.Where {
		switch q := pred.(type) {
		case *query.BoxPred:
			if box.Equal(full) {
				box = litBox(q.Box)
			}
		case *query.NearestPred:
			near = q
		}
	}
	switch {
	case sel.Join != nil:
		rel := relation.New(relation.MustSchema(relation.Column{Name: "region", Type: relation.TID}, id, x, y))
		pts, _, err := src.RangeSearch(full)
		if err != nil {
			return nil, err
		}
		for _, r := range sel.Join.Regions {
			for _, p := range pts {
				if litBox(r.Box).ContainsPoint(p.Coords) {
					rel.MustAppend(relation.Tuple{r.ID, p.ID, int64(p.Coords[0]), int64(p.Coords[1])})
				}
			}
		}
		if rel, err = relation.SortBy(rel, "id"); err != nil {
			return nil, err
		}
		return relation.SortBy(rel, "region")
	case near != nil:
		rel := relation.New(relation.MustSchema(id, x, y, relation.Column{Name: "dist", Type: relation.TFloat}))
		nbs, _, err := src.Nearest(near.Point.Coords, int(near.K), probe.Euclidean)
		for _, nb := range nbs {
			rel.MustAppend(relation.Tuple{nb.Point.ID, int64(nb.Point.Coords[0]), int64(nb.Point.Coords[1]), nb.Dist})
		}
		return rel, err
	}
	rel := relation.New(relation.MustSchema(id, x, y))
	pts, _, err := src.RangeSearch(box)
	for _, p := range pts {
		rel.MustAppend(relation.Tuple{p.ID, int64(p.Coords[0]), int64(p.Coords[1])})
	}
	return rel, err
}

// cmpBoxed orders two boxed values of one type.
func cmpBoxed(a, b relation.Value) int {
	switch a := a.(type) {
	case uint64:
		return cmp.Compare(a, b.(uint64))
	case int64:
		return cmp.Compare(a, b.(int64))
	}
	return cmp.Compare(a.(float64), b.(float64))
}

// oracleWhere evaluates the whole WHERE list on one boxed base tuple.
func oracleWhere(s relation.Schema, sel *query.Select, t relation.Tuple) bool {
	for _, pred := range sel.Where {
		switch q := pred.(type) {
		case *query.BoxPred:
			px, py := uint32(t[s.Index("x")].(int64)), uint32(t[s.Index("y")].(int64))
			if !litBox(q.Box).ContainsPoint([]uint32{px, py}) {
				return false
			}
		case *query.CmpPred:
			var lit relation.Value = q.Value
			switch s[s.Index(q.Col)].Type {
			case relation.TID:
				lit = uint64(q.Value)
			case relation.TFloat:
				lit = float64(q.Value)
			}
			c := cmpBoxed(t[s.Index(q.Col)], lit)
			ok := map[query.CmpOp]bool{
				query.OpEq: c == 0, query.OpNe: c != 0, query.OpLt: c < 0,
				query.OpLe: c <= 0, query.OpGt: c > 0, query.OpGe: c >= 0,
			}[q.Op]
			if !ok {
				return false
			}
		}
	}
	return true
}

// oracleRun answers sel from src without the executor.
func oracleRun(src oracleSource, full probe.Box, sel *query.Select) (battery.Result, error) {
	rel, err := oracleBase(src, full, sel)
	if err != nil {
		return battery.Result{}, err
	}
	rel = relation.Select(rel, func(t relation.Tuple) bool { return oracleWhere(rel.Schema, sel, t) })

	// Name every select item; aggregates become GroupBy specs under
	// their output names.
	items := sel.Items
	if sel.Star {
		for _, c := range rel.Schema {
			items = append(items, query.SelectItem{Col: c.Name})
		}
	}
	names := make([]string, len(items)) // column of rel (after grouping) each item reads
	out := make([]string, len(items))   // its output name
	var aggs []relation.Agg
	for i, it := range items {
		names[i], out[i] = it.Col, it.Col
		if it.Agg != query.AggNone {
			f := map[query.AggFunc]relation.AggFunc{
				query.AggCount: relation.Count, query.AggSum: relation.Sum,
				query.AggMin: relation.Min, query.AggMax: relation.Max,
			}[it.Agg]
			names[i] = f.String() + "_" + it.Col
			if it.Col == "*" {
				names[i] = "count"
			}
			out[i] = names[i]
			aggs = append(aggs, relation.Agg{Func: f, Col: it.Col, As: names[i]})
		}
		if it.As != "" {
			out[i] = it.As
		}
	}
	if len(aggs) > 0 || len(sel.GroupBy) > 0 {
		if rel, err = relation.GroupBy(rel, sel.GroupBy, aggs); err != nil {
			return battery.Result{}, err
		}
	}
	cols := make([]relation.Column, len(items))
	for i := range items {
		cols[i] = relation.Column{Name: out[i], Type: rel.Schema[rel.Schema.Index(names[i])].Type}
	}
	proj := relation.New(relation.MustSchema(cols...))
	for _, t := range rel.Tuples {
		row := make(relation.Tuple, len(items))
		for i := range items {
			row[i] = t[rel.Schema.Index(names[i])]
		}
		proj.Tuples = append(proj.Tuples, row)
	}
	if sel.Distinct {
		if proj, err = relation.Project(proj, out...); err != nil {
			return battery.Result{}, err
		}
	}
	sort.SliceStable(proj.Tuples, func(a, b int) bool {
		for _, k := range sel.OrderBy {
			j := proj.Schema.Index(k.Col)
			if c := cmpBoxed(proj.Tuples[a][j], proj.Tuples[b][j]); c != 0 {
				return (c < 0) != k.Desc
			}
		}
		return false
	})
	if sel.Limit >= 0 && int64(len(proj.Tuples)) > sel.Limit {
		proj.Tuples = proj.Tuples[:sel.Limit]
	}
	return battery.Result{Columns: proj.Schema, Rows: proj.Tuples}, nil
}

// oracleShapes are the statement shapes battery.GenQuery lacks. The
// two many-region joins are merged on a database and nested inside a
// transaction, so both join shapes meet the oracle.
var oracleShapes = []string{
	"SELECT x, y, COUNT(*) AS n FROM points WHERE CONTAINS(BOX(0, 400, 0, 400)) GROUP BY x, y",
	"SELECT y, COUNT(*), MIN(id), MAX(id), SUM(x) FROM points WHERE CONTAINS(BOX(100, 700, 100, 300)) GROUP BY y",
	"SELECT MIN(id) AS lo, MAX(id) AS hi, COUNT(id) FROM points WHERE x >= 512",
	"SELECT SUM(dist), MIN(dist), MAX(dist), COUNT(*) FROM points WHERE NEAREST(POINT(500, 500), 40)",
	"SELECT x, SUM(dist) AS s FROM points WHERE NEAREST(POINT(10, 1000), 60) GROUP BY x",
	"SELECT DISTINCT x, y FROM points WHERE INTERSECTS(BOX(0, 1023, 0, 200))",
	"SELECT DISTINCT x, y FROM points WHERE INTERSECTS(BOX(0, 1023, 0, 200)) ORDER BY y DESC LIMIT 70",
	"SELECT DISTINCT COUNT(*) AS n FROM points WHERE CONTAINS(BOX(0, 300, 0, 1023)) GROUP BY x",
	"SELECT id, dist FROM points WHERE NEAREST(POINT(512, 512), 50) ORDER BY dist DESC, id",
	"SELECT id, dist FROM points WHERE NEAREST(POINT(0, 0), 30) AND x != 3 AND dist > 20 LIMIT 12",
	"SELECT COUNT(*), SUM(x), MIN(y) FROM points WHERE x > 600 AND x < 500",
	"SELECT COUNT(*), SUM(x), MIN(y) FROM points WHERE CONTAINS(BOX(5, 5, 5, 5)) AND id = 0",
	"SELECT x, COUNT(*) FROM points WHERE id = 0 GROUP BY x",
	"SELECT id FROM points WHERE CONTAINS(BOX(0, 500, 0, 500)) LIMIT 0",
	"SELECT COUNT(*) FROM points LIMIT 0",
	"SELECT id, x FROM points ORDER BY x DESC, id LIMIT 0",
	"SELECT region, id, x FROM points JOIN REGIONS(9 BOX(0, 300, 0, 300), 4 BOX(200, 600, 100, 500)) ON INTERSECTS WHERE id != 77 AND id != 1200 AND y <= 400",
	"SELECT region, COUNT(*) AS n, MAX(id) FROM points JOIN REGIONS(9 BOX(0, 300, 0, 300), 4 BOX(200, 600, 100, 500)) ON INTERSECTS WHERE CONTAINS(BOX(100, 400, 0, 1023)) GROUP BY region",
	"SELECT region, COUNT(*) AS n FROM points JOIN REGIONS(1 BOX(0, 1023, 0, 511), 2 BOX(0, 1023, 512, 1023), 3 BOX(0, 511, 0, 1023), 4 BOX(512, 1023, 0, 1023), 5 BOX(128, 895, 128, 895), 6 BOX(0, 1023, 0, 1023)) ON INTERSECTS GROUP BY region",
	"SELECT region, id, x, y FROM points JOIN REGIONS(8 BOX(0, 600, 0, 600), 3 BOX(300, 900, 200, 800), 5 BOX(500, 1023, 0, 400), 1 BOX(0, 400, 500, 1023), 7 BOX(100, 700, 100, 700), 2 BOX(600, 1023, 600, 1023), 6 BOX(200, 250, 0, 1023), 4 BOX(0, 1023, 450, 470)) ON INTERSECTS WHERE x != 300",
	"SELECT x FROM points WHERE CONTAINS(BOX(0, 1023, 300, 420)) GROUP BY x",
	"SELECT y AS row, x AS col, COUNT(*) AS n FROM points WHERE CONTAINS(BOX(0, 200, 0, 1023)) GROUP BY x, y ORDER BY n DESC, row, col DESC LIMIT 25",
	"SELECT * FROM points WHERE y > 1000 ORDER BY x, id DESC",
	"SELECT id AS k FROM points WHERE id >= 3990 ORDER BY k DESC",
}

// oracleBattery runs every statement through src.Query and through
// the oracle, rows compared in exact order: both sides are
// deterministic (z order, stable sorts, groups in first-encounter
// order), so nothing needs the multiset compare.
func oracleBattery(t *testing.T, src oracleSource, full probe.Box) {
	t.Helper()
	stmts := append([]string(nil), oracleShapes...)
	for seed := int64(1000); seed < 1220; seed++ {
		sql, _ := battery.GenQuery(rand.New(rand.NewSource(seed)))
		stmts = append(stmts, sql)
	}
	for _, sql := range stmts {
		st, err := query.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want, err := oracleRun(src, full, st.Select)
		if err != nil {
			t.Fatalf("%s: oracle: %v", sql, err)
		}
		got, err := src.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if d := battery.Diff(battery.Result{Columns: got.Columns, Rows: got.Rows}, want, true); d != "" {
			t.Errorf("executor vs oracle: %s\n  query: %s", d, sql)
		}
	}
}

// TestQueryOracle: the executor against the relation-operator oracle,
// on a database and inside a transaction with buffered inserts and
// deletes.
func TestQueryOracle(t *testing.T) {
	g := probe.MustGrid(2, 10)
	db, err := probe.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1986))
	pts := make([]probe.Point, 4000)
	for i := range pts {
		pts[i] = probe.Pt2(uint64(i+1), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))
	}
	if err := db.InsertAll(pts); err != nil {
		t.Fatal(err)
	}
	full := probe.Box2(0, 1023, 0, 1023)
	t.Run("db", func(t *testing.T) { oracleBattery(t, db, full) })

	tx, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for i := 0; i < 300; i++ {
		if err := tx.Insert(probe.Pt2(uint64(5000+i), uint32(rng.Intn(1024)), uint32(rng.Intn(1024)))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Delete(pts[rng.Intn(len(pts))]); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("tx", func(t *testing.T) { oracleBattery(t, tx, full) })
}
