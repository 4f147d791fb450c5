package relation

import (
	"fmt"
	"strings"
)

// AggFunc is an aggregate function.
type AggFunc int

const (
	// Count counts tuples per group (its column is ignored).
	Count AggFunc = iota
	// Sum adds a TInt or TFloat column.
	Sum
	// Min takes the minimum of a TID, TInt, TFloat or TString column.
	Min
	// Max takes the maximum of a TID, TInt, TFloat or TString column.
	Max
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// Agg specifies one aggregate output column.
type Agg struct {
	Func AggFunc
	Col  string // input column (ignored for Count)
	As   string // output column name
}

// GroupBy groups the relation by the named columns and computes the
// aggregates per group — the set-at-a-time summarization needed for
// the paper's "global property" queries (how many objects, what is
// the area of each). Output columns are the group columns followed by
// the aggregates; groups appear in first-encounter order.
func GroupBy(r *Relation, groupCols []string, aggs []Agg) (*Relation, error) {
	gi := make([]int, len(groupCols))
	schema := make(Schema, 0, len(groupCols)+len(aggs))
	for i, name := range groupCols {
		j := r.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("relation: no group column %q", name)
		}
		gi[i] = j
		schema = append(schema, r.Schema[j])
	}
	ai := make([]int, len(aggs))
	for i, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("relation: aggregate %d has no output name", i)
		}
		switch a.Func {
		case Count:
			ai[i] = -1
			schema = append(schema, Column{Name: a.As, Type: TInt})
		case Sum, Min, Max:
			j := r.Schema.Index(a.Col)
			if j < 0 {
				return nil, fmt.Errorf("relation: no aggregate column %q", a.Col)
			}
			typ := r.Schema[j].Type
			if err := checkAggType(a.Func, typ); err != nil {
				return nil, err
			}
			ai[i] = j
			schema = append(schema, Column{Name: a.As, Type: typ})
		default:
			return nil, fmt.Errorf("relation: unknown aggregate %v", a.Func)
		}
	}
	out := New(schema)
	groupIdx := make(map[string]int)
	var order []string
	groups := make(map[string][]Tuple)
	for _, t := range r.Tuples {
		key := make(Tuple, len(gi))
		for i, j := range gi {
			key[i] = t[j]
		}
		k := tupleKey(key)
		if _, ok := groupIdx[k]; !ok {
			groupIdx[k] = len(order)
			order = append(order, k)
		}
		groups[k] = append(groups[k], t)
	}
	for _, k := range order {
		tuples := groups[k]
		row := make(Tuple, 0, len(schema))
		for _, j := range gi {
			row = append(row, tuples[0][j])
		}
		for i, a := range aggs {
			v, err := aggregate(a.Func, tuples, ai[i])
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

func checkAggType(f AggFunc, t Type) error {
	switch f {
	case Sum:
		if t != TInt && t != TFloat {
			return fmt.Errorf("relation: sum over %v column", t)
		}
	case Min, Max:
		if t != TInt && t != TFloat && t != TString && t != TID {
			return fmt.Errorf("relation: %v over %v column", f, t)
		}
	}
	return nil
}

func aggregate(f AggFunc, tuples []Tuple, col int) (Value, error) {
	if f == Count {
		return int64(len(tuples)), nil
	}
	switch v0 := tuples[0][col].(type) {
	case int64:
		acc := v0
		for _, t := range tuples[1:] {
			v := t[col].(int64)
			acc = combineInt(f, acc, v)
		}
		return acc, nil
	case float64:
		acc := v0
		for _, t := range tuples[1:] {
			v := t[col].(float64)
			acc = combineFloat(f, acc, v)
		}
		return acc, nil
	case uint64:
		acc := v0
		for _, t := range tuples[1:] {
			v := t[col].(uint64)
			acc = combineUint(f, acc, v)
		}
		return acc, nil
	case string:
		if f == Sum {
			return nil, fmt.Errorf("relation: sum over string column")
		}
		acc := v0
		for _, t := range tuples[1:] {
			v := t[col].(string)
			if (f == Min && strings.Compare(v, acc) < 0) || (f == Max && strings.Compare(v, acc) > 0) {
				acc = v
			}
		}
		return acc, nil
	}
	return nil, fmt.Errorf("relation: cannot aggregate %T", tuples[0][col])
}

func combineInt(f AggFunc, a, b int64) int64 {
	switch f {
	case Sum:
		return a + b
	case Min:
		if b < a {
			return b
		}
	case Max:
		if b > a {
			return b
		}
	}
	return a
}

func combineFloat(f AggFunc, a, b float64) float64 {
	switch f {
	case Sum:
		return a + b
	case Min:
		if b < a {
			return b
		}
	case Max:
		if b > a {
			return b
		}
	}
	return a
}

func combineUint(f AggFunc, a, b uint64) uint64 {
	switch f {
	case Min:
		if b < a {
			return b
		}
	case Max:
		if b > a {
			return b
		}
	}
	return a
}
