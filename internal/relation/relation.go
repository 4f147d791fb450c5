// Package relation is a miniature set-at-a-time relational engine:
// the substrate Section 4 requires to host spatial query processing
// inside a DBMS. It provides schemas, relations and the classical
// operators (select, project with duplicate elimination, sort,
// equijoin), plus the two additions the paper calls for: a domain for
// the element object class, and the spatial join R[zr <> zs]S
// implemented with "the implementation strategies of natural join...
// instead of looking for equality, we're looking for containment".
package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"probe/internal/core"
	"probe/internal/zorder"
)

// Type is a column type.
type Type int

const (
	// TID is a 64-bit object/tuple identifier (the p@ of the paper).
	TID Type = iota
	// TInt is a 64-bit signed integer.
	TInt
	// TFloat is a 64-bit float.
	TFloat
	// TString is a string.
	TString
	// TElement is the element domain of Section 4: a variable-length
	// bitstring with a spatial interpretation.
	TElement
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TID:
		return "id"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	case TElement:
		return "element"
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// Value is a single attribute value: uint64 for TID, int64 for TInt,
// float64 for TFloat, string for TString, zorder.Element for
// TElement. It is an alias so that the wire decodes a ROWS frame's
// cells (wire.RowValue, the same alias) straight into Tuples.
type Value = interface{}

// checkValue verifies a value against a type.
func checkValue(v Value, t Type) error {
	ok := false
	switch t {
	case TID:
		_, ok = v.(uint64)
	case TInt:
		_, ok = v.(int64)
	case TFloat:
		_, ok = v.(float64)
	case TString:
		_, ok = v.(string)
	case TElement:
		_, ok = v.(zorder.Element)
	}
	if !ok {
		return fmt.Errorf("relation: value %v (%T) does not satisfy type %v", v, v, t)
	}
	return nil
}

// Column is a named, typed attribute.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns with unique names.
type Schema []Column

// NewSchema validates and builds a schema.
func NewSchema(cols ...Column) (Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("relation: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("relation: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return Schema(cols), nil
}

// MustSchema is NewSchema panicking on error.
func MustSchema(cols ...Column) Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// String implements fmt.Stringer.
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%s:%v", c.Name, c.Type)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row; its values correspond positionally to a schema.
type Tuple []Value

// Relation is a schema plus a multiset of tuples.
type Relation struct {
	Schema Schema
	Tuples []Tuple
}

// New creates an empty relation with the schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Append adds a tuple after validating it against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Schema) {
		return fmt.Errorf("relation: tuple has %d values, schema %d", len(t), len(r.Schema))
	}
	for i, v := range t {
		if err := checkValue(v, r.Schema[i].Type); err != nil {
			return fmt.Errorf("relation: column %q: %w", r.Schema[i].Name, err)
		}
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend is Append panicking on error.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Select returns the tuples satisfying the predicate.
func Select(r *Relation, pred func(Tuple) bool) *Relation {
	out := New(r.Schema)
	for _, t := range r.Tuples {
		if pred(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Project returns the named columns with duplicate elimination — the
// projection that "eliminates this redundancy" after a spatial join
// (Section 4).
func Project(r *Relation, cols ...string) (*Relation, error) {
	idx := make([]int, len(cols))
	schema := make(Schema, len(cols))
	for i, name := range cols {
		j := r.Schema.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("relation: no column %q in %v", name, r.Schema)
		}
		idx[i] = j
		schema[i] = r.Schema[j]
	}
	out := New(schema)
	seen := make(map[string]bool, len(r.Tuples))
	for _, t := range r.Tuples {
		proj := make(Tuple, len(idx))
		for i, j := range idx {
			proj[i] = t[j]
		}
		k := tupleKey(proj)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Tuples = append(out.Tuples, proj)
	}
	return out, nil
}

// tupleKey builds a map key identifying a tuple's values: per value a
// type tag, then 8 fixed bytes, or a length and the bytes of a string,
// so no two distinct tuples share a key.
func tupleKey(t Tuple) string {
	var b []byte
	for _, v := range t {
		switch v := v.(type) {
		case uint64:
			b = binary.BigEndian.AppendUint64(append(b, byte(TID)), v)
		case int64:
			b = binary.BigEndian.AppendUint64(append(b, byte(TInt)), uint64(v))
		case float64:
			b = binary.BigEndian.AppendUint64(append(b, byte(TFloat)), math.Float64bits(v))
		case string:
			b = binary.BigEndian.AppendUint64(append(b, byte(TString)), uint64(len(v)))
			b = append(b, v...)
		case zorder.Element:
			b = binary.BigEndian.AppendUint64(append(b, byte(TElement), v.Len), v.Bits)
		}
	}
	return string(b)
}

// SortBy sorts the relation by the named column, ascending. Elements
// sort in z order.
func SortBy(r *Relation, col string) (*Relation, error) {
	j := r.Schema.Index(col)
	if j < 0 {
		return nil, fmt.Errorf("relation: no column %q", col)
	}
	out := New(r.Schema)
	out.Tuples = append([]Tuple(nil), r.Tuples...)
	typ := r.Schema[j].Type
	sort.SliceStable(out.Tuples, func(a, b int) bool {
		return valueLess(out.Tuples[a][j], out.Tuples[b][j], typ)
	})
	return out, nil
}

func valueLess(a, b Value, t Type) bool {
	switch t {
	case TID:
		return a.(uint64) < b.(uint64)
	case TInt:
		return a.(int64) < b.(int64)
	case TFloat:
		return a.(float64) < b.(float64)
	case TString:
		return a.(string) < b.(string)
	case TElement:
		return a.(zorder.Element).Precedes(b.(zorder.Element))
	}
	return false
}

// EquiJoin joins r and s on equality of the named columns (hash
// join). Output columns are r's followed by s's, with s's join column
// retained; colliding names get an "s_" prefix.
func EquiJoin(r, s *Relation, rcol, scol string) (*Relation, error) {
	ri := r.Schema.Index(rcol)
	si := s.Schema.Index(scol)
	if ri < 0 || si < 0 {
		return nil, fmt.Errorf("relation: join columns %q/%q missing", rcol, scol)
	}
	if r.Schema[ri].Type != s.Schema[si].Type {
		return nil, fmt.Errorf("relation: join column types differ: %v vs %v",
			r.Schema[ri].Type, s.Schema[si].Type)
	}
	schema := combinedSchema(r.Schema, s.Schema)
	out := New(schema)
	index := make(map[string][]Tuple)
	for _, t := range s.Tuples {
		k := tupleKey(Tuple{t[si]})
		index[k] = append(index[k], t)
	}
	for _, t := range r.Tuples {
		for _, u := range index[tupleKey(Tuple{t[ri]})] {
			out.Tuples = append(out.Tuples, concatTuples(t, u))
		}
	}
	return out, nil
}

func combinedSchema(a, b Schema) Schema {
	names := make(map[string]bool, len(a)+len(b))
	for _, c := range a {
		names[c.Name] = true
	}
	schema := append(Schema(nil), a...)
	for _, c := range b {
		name := c.Name
		for names[name] {
			name = "s_" + name
		}
		names[name] = true
		schema = append(schema, Column{Name: name, Type: c.Type})
	}
	return schema
}

func concatTuples(a, b Tuple) Tuple {
	t := make(Tuple, 0, len(a)+len(b))
	t = append(t, a...)
	return append(t, b...)
}

// SpatialJoin computes R[zr <> zs]S: pairs of tuples whose element
// attributes overlap (one contains the other). Output columns are r's
// followed by s's as in EquiJoin.
func SpatialJoin(r, s *Relation, zr, zs string) (*Relation, error) {
	ri := r.Schema.Index(zr)
	si := s.Schema.Index(zs)
	if ri < 0 || si < 0 {
		return nil, fmt.Errorf("relation: spatial join columns %q/%q missing", zr, zs)
	}
	if r.Schema[ri].Type != TElement || s.Schema[si].Type != TElement {
		return nil, fmt.Errorf("relation: spatial join requires element columns")
	}
	// Sort both sides in z order and run the element merge. Items
	// carry tuple indexes as ids.
	aItems := make([]core.Item, len(r.Tuples))
	for i, t := range r.Tuples {
		aItems[i] = core.Item{Elem: t[ri].(zorder.Element), ID: uint64(i)}
	}
	bItems := make([]core.Item, len(s.Tuples))
	for i, t := range s.Tuples {
		bItems[i] = core.Item{Elem: t[si].(zorder.Element), ID: uint64(i)}
	}
	core.SortItems(aItems)
	core.SortItems(bItems)
	pairs, err := core.SpatialJoin(aItems, bItems)
	if err != nil {
		return nil, err
	}
	out := New(combinedSchema(r.Schema, s.Schema))
	for _, p := range pairs {
		out.Tuples = append(out.Tuples, concatTuples(r.Tuples[p.A], s.Tuples[p.B]))
	}
	return out, nil
}

// String renders the relation as a small table (for examples and
// debugging).
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	b.WriteByte('\n')
	for _, t := range r.Tuples {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = fmt.Sprintf("%v", v)
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}
