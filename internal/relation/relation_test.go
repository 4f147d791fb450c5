package relation

import (
	"math/rand"
	"testing"

	"probe/internal/decompose"
	"probe/internal/geom"
	"probe/internal/zorder"
)

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Type: TInt}, Column{Name: "a", Type: TID}); err == nil {
		t.Errorf("duplicate column accepted")
	}
	if _, err := NewSchema(Column{Name: "", Type: TInt}); err == nil {
		t.Errorf("empty column name accepted")
	}
	s := MustSchema(Column{Name: "a", Type: TInt}, Column{Name: "b", Type: TString})
	if s.Index("b") != 1 || s.Index("zzz") != -1 {
		t.Errorf("Index wrong")
	}
	if s.String() != "(a:int, b:string)" {
		t.Errorf("String = %q", s.String())
	}
	for _, typ := range []Type{TID, TInt, TFloat, TString, TElement, Type(99)} {
		if typ.String() == "" {
			t.Errorf("type %d renders empty", typ)
		}
	}
}

func TestAppendTypeChecking(t *testing.T) {
	r := New(MustSchema(
		Column{Name: "id", Type: TID},
		Column{Name: "n", Type: TInt},
		Column{Name: "f", Type: TFloat},
		Column{Name: "s", Type: TString},
		Column{Name: "e", Type: TElement},
	))
	good := Tuple{uint64(1), int64(-5), 2.5, "x", zorder.MustParseElement("01")}
	if err := r.Append(good); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	if err := r.Append(Tuple{uint64(1)}); err == nil {
		t.Errorf("short tuple accepted")
	}
	bad := Tuple{int64(1), int64(-5), 2.5, "x", zorder.MustParseElement("01")}
	if err := r.Append(bad); err == nil {
		t.Errorf("mistyped tuple accepted")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.String() == "" {
		t.Errorf("String empty")
	}
}

func TestSelectProject(t *testing.T) {
	r := New(MustSchema(Column{Name: "id", Type: TID}, Column{Name: "n", Type: TInt}))
	for i := 0; i < 10; i++ {
		r.MustAppend(Tuple{uint64(i), int64(i % 3)})
	}
	sel := Select(r, func(t Tuple) bool { return t[1].(int64) == 1 })
	if sel.Len() != 3 {
		t.Errorf("Select found %d", sel.Len())
	}
	proj, err := Project(r, "n")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 3 { // duplicates eliminated
		t.Errorf("Project kept %d distinct values, want 3", proj.Len())
	}
	if _, err := Project(r, "missing"); err == nil {
		t.Errorf("projection of missing column accepted")
	}
}

// TestProjectKeysDoNotCollide: two distinct string tuples whose values
// spell out each other's separators are two rows, not one.
func TestProjectKeysDoNotCollide(t *testing.T) {
	r := New(MustSchema(Column{Name: "a", Type: TString}, Column{Name: "b", Type: TString}))
	r.MustAppend(Tuple{"a|string|b", "c"})
	r.MustAppend(Tuple{"a", "b|string|c"})
	proj, err := Project(r, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 2 {
		t.Errorf("Project kept %d of 2 distinct tuples: %v", proj.Len(), proj.Tuples)
	}
}

func TestSortBy(t *testing.T) {
	r := New(MustSchema(Column{Name: "e", Type: TElement}))
	es := []string{"10", "0", "011", "01"}
	for _, s := range es {
		r.MustAppend(Tuple{zorder.MustParseElement(s)})
	}
	sorted, err := SortBy(r, "e")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0", "01", "011", "10"}
	for i, w := range want {
		if sorted.Tuples[i][0].(zorder.Element).String() != w {
			t.Fatalf("sort order wrong at %d", i)
		}
	}
	if _, err := SortBy(r, "zzz"); err == nil {
		t.Errorf("sort by missing column accepted")
	}
}

func TestEquiJoin(t *testing.T) {
	r := New(MustSchema(Column{Name: "id", Type: TID}, Column{Name: "city", Type: TString}))
	r.MustAppend(Tuple{uint64(1), "boston"})
	r.MustAppend(Tuple{uint64(2), "cambridge"})
	s := New(MustSchema(Column{Name: "id", Type: TID}, Column{Name: "pop", Type: TInt}))
	s.MustAppend(Tuple{uint64(1), int64(600)})
	s.MustAppend(Tuple{uint64(3), int64(100)})
	j, err := EquiJoin(r, s, "id", "id")
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 || j.Tuples[0][1] != "boston" || j.Tuples[0][3] != int64(600) {
		t.Errorf("join result wrong: %v", j)
	}
	if j.Schema.Index("s_id") < 0 {
		t.Errorf("name collision not resolved: %v", j.Schema)
	}
	if _, err := EquiJoin(r, s, "zzz", "id"); err == nil {
		t.Errorf("missing join column accepted")
	}
	if _, err := EquiJoin(r, s, "city", "pop"); err == nil {
		t.Errorf("mismatched join types accepted")
	}
}

func TestSpatialJoinOperator(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	mkRel := func(boxes []geom.Box) *Relation {
		r := New(MustSchema(Column{Name: "id", Type: TID}, Column{Name: "z", Type: TElement}))
		for i, b := range boxes {
			for _, e := range decompose.Box(g, b) {
				r.MustAppend(Tuple{uint64(i), e})
			}
		}
		return r
	}
	left := mkRel([]geom.Box{geom.Box2(0, 7, 0, 7), geom.Box2(12, 15, 12, 15)})
	right := mkRel([]geom.Box{geom.Box2(4, 11, 4, 11)})
	j, err := SpatialJoin(left, right, "z", "z")
	if err != nil {
		t.Fatal(err)
	}
	// Only left object 0 overlaps right object 0; project ids.
	proj, err := Project(j, "id", "s_id")
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 1 || proj.Tuples[0][0] != uint64(0) || proj.Tuples[0][1] != uint64(0) {
		t.Errorf("spatial join result wrong: %v", proj)
	}
	if _, err := SpatialJoin(left, right, "id", "z"); err == nil {
		t.Errorf("non-element column accepted")
	}
	if _, err := SpatialJoin(left, right, "zzz", "z"); err == nil {
		t.Errorf("missing column accepted")
	}
}

func TestShufflePoints(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	pts := New(MustSchema(
		Column{Name: "id", Type: TID},
		Column{Name: "x", Type: TInt},
		Column{Name: "y", Type: TInt},
	))
	pts.MustAppend(Tuple{uint64(1), int64(3), int64(5)})
	p, err := ShufflePoints(g, pts, "id", []string{"x", "y"}, "zp")
	if err != nil {
		t.Fatal(err)
	}
	e := p.Tuples[0][p.Schema.Index("zp")].(zorder.Element)
	// Figure 4: [3,5] -> 011011.
	if e.String() != "011011" {
		t.Errorf("shuffled element = %v", e)
	}
	// Errors.
	if _, err := ShufflePoints(g, pts, "x", []string{"x", "y"}, "zp"); err == nil {
		t.Errorf("non-TID id column accepted")
	}
	if _, err := ShufflePoints(g, pts, "id", []string{"x"}, "zp"); err == nil {
		t.Errorf("wrong arity accepted")
	}
	bad := New(pts.Schema)
	bad.MustAppend(Tuple{uint64(1), int64(99), int64(0)})
	if _, err := ShufflePoints(g, bad, "id", []string{"x", "y"}, "zp"); err == nil {
		t.Errorf("out-of-grid coordinate accepted")
	}
}

func TestDecomposeObjects(t *testing.T) {
	g := zorder.MustGrid(2, 3)
	rel, err := DecomposeObjects(g, []CatalogEntry{
		{ID: 7, Object: geom.Box2(2, 3, 0, 3)},
		{ID: 8, Object: geom.Box2(0, 7, 0, 7)},
	}, decompose.Options{}, "id", "z")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 { // one element each
		t.Fatalf("Len = %d: %v", rel.Len(), rel)
	}
	if rel.Tuples[0][0] != uint64(7) || rel.Tuples[0][1].(zorder.Element).String() != "001" {
		t.Errorf("decomposed tuple wrong: %v", rel.Tuples[0])
	}
	if _, err := DecomposeObjects(zorder.MustGrid(3, 2), []CatalogEntry{{ID: 1, Object: geom.Box2(0, 1, 0, 1)}}, decompose.Options{}, "id", "z"); err == nil {
		t.Errorf("dims mismatch accepted")
	}
}

// TestRangeSearchPlan runs the complete Section 4 scenario and checks
// it against a direct filter.
func TestRangeSearchPlan(t *testing.T) {
	g := zorder.MustGrid(2, 6)
	rng := rand.New(rand.NewSource(17))
	points := New(MustSchema(
		Column{Name: "p", Type: TID},
		Column{Name: "x", Type: TInt},
		Column{Name: "y", Type: TInt},
	))
	for i := 0; i < 500; i++ {
		points.MustAppend(Tuple{uint64(i), int64(rng.Intn(64)), int64(rng.Intn(64))})
	}
	box := geom.Box2(10, 30, 20, 50)
	res, err := RangeSearchPlan(g, points, "p", "x", "y", box)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int64]bool)
	for _, t := range points.Tuples {
		x, y := t[1].(int64), t[2].(int64)
		if x >= 10 && x <= 30 && y >= 20 && y <= 50 {
			want[[2]int64{x, y}] = true
		}
	}
	if res.Len() != len(want) {
		t.Fatalf("plan returned %d coordinates, want %d", res.Len(), len(want))
	}
	for _, tu := range res.Tuples {
		if !want[[2]int64{tu[0].(int64), tu[1].(int64)}] {
			t.Fatalf("unexpected coordinate %v", tu)
		}
	}
	if _, err := RangeSearchPlan(zorder.MustGrid(3, 4), points, "p", "x", "y", box); err == nil {
		t.Errorf("3d grid accepted")
	}
}

func TestGroupByCountSum(t *testing.T) {
	r := New(MustSchema(
		Column{Name: "city", Type: TString},
		Column{Name: "pop", Type: TInt},
		Column{Name: "area", Type: TFloat},
	))
	r.MustAppend(Tuple{"boston", int64(600), 1.5})
	r.MustAppend(Tuple{"boston", int64(100), 2.5})
	r.MustAppend(Tuple{"salem", int64(40), 3.0})
	out, err := GroupBy(r, []string{"city"}, []Agg{
		{Func: Count, As: "n"},
		{Func: Sum, Col: "pop", As: "pop"},
		{Func: Max, Col: "area", As: "maxarea"},
		{Func: Min, Col: "pop", As: "minpop"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("groups = %d", out.Len())
	}
	b := out.Tuples[0]
	if b[0] != "boston" || b[1] != int64(2) || b[2] != int64(700) || b[3] != 2.5 || b[4] != int64(100) {
		t.Errorf("boston row = %v", b)
	}
	s := out.Tuples[1]
	if s[0] != "salem" || s[1] != int64(1) || s[2] != int64(40) {
		t.Errorf("salem row = %v", s)
	}
}

func TestGroupByNoGroupColumns(t *testing.T) {
	r := New(MustSchema(Column{Name: "v", Type: TInt}))
	for i := int64(1); i <= 5; i++ {
		r.MustAppend(Tuple{i})
	}
	out, err := GroupBy(r, nil, []Agg{
		{Func: Sum, Col: "v", As: "total"},
		{Func: Min, Col: "v", As: "lo"},
		{Func: Max, Col: "v", As: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0][0] != int64(15) || out.Tuples[0][1] != int64(1) || out.Tuples[0][2] != int64(5) {
		t.Errorf("whole-relation aggregate = %v", out.Tuples)
	}
}

func TestGroupByStringsAndIDs(t *testing.T) {
	r := New(MustSchema(Column{Name: "g", Type: TInt}, Column{Name: "name", Type: TString}, Column{Name: "id", Type: TID}))
	r.MustAppend(Tuple{int64(1), "zebra", uint64(9)})
	r.MustAppend(Tuple{int64(1), "ant", uint64(4)})
	out, err := GroupBy(r, []string{"g"}, []Agg{
		{Func: Min, Col: "name", As: "first"},
		{Func: Max, Col: "id", As: "maxid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tuples[0][1] != "ant" || out.Tuples[0][2] != uint64(9) {
		t.Errorf("row = %v", out.Tuples[0])
	}
}

func TestGroupByErrors(t *testing.T) {
	r := New(MustSchema(Column{Name: "s", Type: TString}, Column{Name: "e", Type: TElement}))
	r.MustAppend(Tuple{"x", zorder.MustParseElement("01")})
	if _, err := GroupBy(r, []string{"zzz"}, nil); err == nil {
		t.Errorf("missing group column accepted")
	}
	if _, err := GroupBy(r, nil, []Agg{{Func: Sum, Col: "s", As: "x"}}); err == nil {
		t.Errorf("sum over string accepted")
	}
	if _, err := GroupBy(r, nil, []Agg{{Func: Min, Col: "e", As: "x"}}); err == nil {
		t.Errorf("min over element accepted")
	}
	if _, err := GroupBy(r, nil, []Agg{{Func: Count}}); err == nil {
		t.Errorf("aggregate without output name accepted")
	}
	if _, err := GroupBy(r, nil, []Agg{{Func: AggFunc(9), As: "x"}}); err == nil {
		t.Errorf("unknown aggregate accepted")
	}
	if _, err := GroupBy(r, nil, []Agg{{Func: Sum, Col: "zzz", As: "x"}}); err == nil {
		t.Errorf("missing aggregate column accepted")
	}
	for _, f := range []AggFunc{Count, Sum, Min, Max, AggFunc(9)} {
		if f.String() == "" {
			t.Errorf("AggFunc %d renders empty", f)
		}
	}
}

// TestGroupByOverlapCounts runs the paper's global-property pattern:
// after a spatial join, count overlapping elements per object pair.
func TestGroupByOverlapCounts(t *testing.T) {
	g := zorder.MustGrid(2, 4)
	mkRel := func(boxes []geom.Box) *Relation {
		r := New(MustSchema(Column{Name: "id", Type: TID}, Column{Name: "z", Type: TElement}))
		for i, b := range boxes {
			for _, e := range decompose.Box(g, b) {
				r.MustAppend(Tuple{uint64(i + 1), e})
			}
		}
		return r
	}
	left := mkRel([]geom.Box{geom.Box2(0, 7, 0, 7)})
	right := mkRel([]geom.Box{geom.Box2(4, 11, 4, 11), geom.Box2(0, 1, 0, 1)})
	joined, err := SpatialJoin(left, right, "z", "z")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := GroupBy(joined, []string{"id", "s_id"}, []Agg{{Func: Count, As: "pairs"}})
	if err != nil {
		t.Fatal(err)
	}
	if counts.Len() != 2 {
		t.Fatalf("expected 2 overlapping object pairs, got %d:\n%v", counts.Len(), counts)
	}
	for _, row := range counts.Tuples {
		if row[2].(int64) < 1 {
			t.Errorf("pair %v has no element pairs", row)
		}
	}
}

func TestCombinedSchemaDeepCollision(t *testing.T) {
	a := MustSchema(Column{Name: "id", Type: TID}, Column{Name: "s_id", Type: TInt})
	b := MustSchema(Column{Name: "id", Type: TID})
	got := combinedSchema(a, b)
	seen := map[string]bool{}
	for _, c := range got {
		if seen[c.Name] {
			t.Fatalf("duplicate column %q in combined schema %v", c.Name, got)
		}
		seen[c.Name] = true
	}
	if got.Index("s_s_id") < 0 {
		t.Errorf("expected doubly-prefixed column, got %v", got)
	}
}
