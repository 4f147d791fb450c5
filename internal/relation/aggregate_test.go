package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// bruteGroupBy recomputes GroupBy with a deliberately naive
// implementation — a linear scan per group, accumulating with the
// plainest possible loops — to serve as the oracle for the property
// test. It supports the same group-in-first-encounter-order contract.
func bruteGroupBy(r *Relation, groupCols []string, aggs []Agg) *Relation {
	gi := make([]int, len(groupCols))
	for i, name := range groupCols {
		gi[i] = r.Schema.Index(name)
	}
	var keys []string
	rows := map[string][]Tuple{}
	for _, t := range r.Tuples {
		key := ""
		for _, j := range gi {
			key += fmt.Sprintf("|%v", t[j])
		}
		if _, ok := rows[key]; !ok {
			keys = append(keys, key)
		}
		rows[key] = append(rows[key], t)
	}
	out := &Relation{}
	for _, k := range keys {
		group := rows[k]
		row := make(Tuple, 0, len(gi)+len(aggs))
		for _, j := range gi {
			row = append(row, group[0][j])
		}
		for _, a := range aggs {
			j := r.Schema.Index(a.Col)
			switch a.Func {
			case Count:
				row = append(row, int64(len(group)))
			case Sum:
				switch group[0][j].(type) {
				case int64:
					var acc int64
					for _, t := range group {
						acc += t[j].(int64)
					}
					row = append(row, acc)
				case float64:
					var acc float64
					for _, t := range group {
						acc += t[j].(float64)
					}
					row = append(row, acc)
				}
			case Min, Max:
				best := group[0][j]
				for _, t := range group[1:] {
					v := t[j]
					var less bool
					switch x := v.(type) {
					case int64:
						less = x < best.(int64)
					case float64:
						less = x < best.(float64)
					case uint64:
						less = x < best.(uint64)
					case string:
						less = x < best.(string)
					}
					if (a.Func == Min && less) || (a.Func == Max && !less && !reflect.DeepEqual(v, best)) {
						best = v
					}
				}
				row = append(row, best)
			}
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out
}

// TestGroupByProperty checks GroupBy against the brute-force oracle
// over randomly generated relations: random group cardinality, random
// value distributions, every aggregate function, many trials.
func TestGroupByProperty(t *testing.T) {
	schema := MustSchema(
		Column{Name: "g", Type: TInt},
		Column{Name: "h", Type: TString},
		Column{Name: "n", Type: TInt},
		Column{Name: "x", Type: TFloat},
		Column{Name: "s", Type: TString},
	)
	aggs := []Agg{
		{Func: Count, As: "cnt"},
		{Func: Sum, Col: "n", As: "sum_n"},
		{Func: Min, Col: "n", As: "min_n"},
		{Func: Max, Col: "n", As: "max_n"},
		{Func: Sum, Col: "x", As: "sum_x"},
		{Func: Min, Col: "s", As: "min_s"},
		{Func: Max, Col: "s", As: "max_s"},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		r := New(schema)
		nRows := rng.Intn(60)
		nGroups := 1 + rng.Intn(8)
		for i := 0; i < nRows; i++ {
			r.MustAppend(Tuple{
				int64(rng.Intn(nGroups)),
				fmt.Sprintf("h%d", rng.Intn(3)),
				int64(rng.Intn(201) - 100),
				float64(rng.Intn(1000)) / 8, // dyadic: exact float sums
				fmt.Sprintf("s%02d", rng.Intn(50)),
			})
		}
		for _, groupCols := range [][]string{{"g"}, {"g", "h"}, nil} {
			got, err := GroupBy(r, groupCols, aggs)
			if err != nil {
				t.Fatalf("trial %d group %v: %v", trial, groupCols, err)
			}
			want := bruteGroupBy(r, groupCols, aggs)
			if nRows == 0 {
				// An empty input yields no groups, even with no
				// group columns (SQL would yield one global row; the
				// paper's engine defines it as empty).
				if got.Len() != 0 {
					t.Fatalf("trial %d: empty relation produced %d groups", trial, got.Len())
				}
				continue
			}
			if got.Len() != len(want.Tuples) {
				t.Fatalf("trial %d group %v: %d groups, want %d",
					trial, groupCols, got.Len(), len(want.Tuples))
			}
			for i, row := range got.Tuples {
				if !reflect.DeepEqual(row, want.Tuples[i]) {
					t.Fatalf("trial %d group %v row %d:\n got %v\nwant %v",
						trial, groupCols, i, row, want.Tuples[i])
				}
			}
		}
	}
}

// TestGroupByEmptyRelation pins the empty-input contract explicitly.
func TestGroupByEmptyRelation(t *testing.T) {
	r := New(MustSchema(Column{Name: "g", Type: TInt}, Column{Name: "v", Type: TInt}))
	out, err := GroupBy(r, []string{"g"}, []Agg{{Func: Sum, Col: "v", As: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty relation grouped to %d rows", out.Len())
	}
	if len(out.Schema) != 2 || out.Schema[0].Name != "g" || out.Schema[1].Name != "s" {
		t.Fatalf("wrong output schema %v", out.Schema)
	}
}

// TestGroupBySingleGroup: all tuples in one group, every aggregate.
func TestGroupBySingleGroup(t *testing.T) {
	r := New(MustSchema(Column{Name: "g", Type: TString}, Column{Name: "v", Type: TInt}))
	for _, v := range []int64{5, -2, 9, 9, 0} {
		r.MustAppend(Tuple{"only", v})
	}
	out, err := GroupBy(r, []string{"g"}, []Agg{
		{Func: Count, As: "c"},
		{Func: Sum, Col: "v", As: "sum"},
		{Func: Min, Col: "v", As: "min"},
		{Func: Max, Col: "v", As: "max"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("%d groups, want 1", out.Len())
	}
	want := Tuple{"only", int64(5), int64(21), int64(-2), int64(9)}
	if !reflect.DeepEqual(out.Tuples[0], want) {
		t.Fatalf("got %v, want %v", out.Tuples[0], want)
	}
}

// TestGroupByFirstEncounterOrder pins the group ordering contract.
func TestGroupByFirstEncounterOrder(t *testing.T) {
	r := New(MustSchema(Column{Name: "g", Type: TString}))
	for _, g := range []string{"z", "a", "m", "a", "z", "q"} {
		r.MustAppend(Tuple{g})
	}
	out, err := GroupBy(r, []string{"g"}, []Agg{{Func: Count, As: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, row := range out.Tuples {
		order = append(order, row[0].(string))
	}
	if !reflect.DeepEqual(order, []string{"z", "a", "m", "q"}) {
		t.Fatalf("group order %v, want first-encounter order", order)
	}
}

// TestGroupByKeysDoNotCollide: the two tuples of
// TestProjectKeysDoNotCollide are two groups of one, not one of two.
func TestGroupByKeysDoNotCollide(t *testing.T) {
	r := New(MustSchema(Column{Name: "a", Type: TString}, Column{Name: "b", Type: TString}))
	r.MustAppend(Tuple{"a|string|b", "c"})
	r.MustAppend(Tuple{"a", "b|string|c"})
	got, err := GroupBy(r, []string{"a", "b"}, []Agg{{Func: Count, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Tuple{{"a|string|b", "c", int64(1)}, {"a", "b|string|c", int64(1)}}
	if !reflect.DeepEqual(got.Tuples, want) {
		t.Errorf("groups %v, want %v", got.Tuples, want)
	}
}
