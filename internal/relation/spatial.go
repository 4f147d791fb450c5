package relation

import (
	"fmt"

	"probe/internal/core"
	"probe/internal/decompose"
	"probe/internal/geom"
	"probe/internal/zorder"
)

// This file provides the spatial operators that connect the
// relational engine to approximate geometry: the element-domain
// operations of Section 4 (shuffle, decompose as relational
// operators) and the end-to-end range-search plan of that section.

// ShufflePoints implements the paper's
//
//	P(p@, zp, x, y) := Points[p@, shuffle([x:x, y:y]), x, y]
//
// step: it extends a relation of identified grid points with the
// element column holding each point's shuffled (one-pixel) element.
// idCol must be TID and coordCols TInt columns within grid range.
func ShufflePoints(g zorder.Grid, r *Relation, idCol string, coordCols []string, zCol string) (*Relation, error) {
	ii := r.Schema.Index(idCol)
	if ii < 0 || r.Schema[ii].Type != TID {
		return nil, fmt.Errorf("relation: id column %q missing or not TID", idCol)
	}
	if len(coordCols) != g.Dims() {
		return nil, fmt.Errorf("relation: %d coordinate columns for %d dims", len(coordCols), g.Dims())
	}
	ci := make([]int, len(coordCols))
	for i, name := range coordCols {
		j := r.Schema.Index(name)
		if j < 0 || r.Schema[j].Type != TInt {
			return nil, fmt.Errorf("relation: coordinate column %q missing or not TInt", name)
		}
		ci[i] = j
	}
	schema := append(Schema(nil), r.Schema...)
	schema = append(schema, Column{Name: zCol, Type: TElement})
	out := New(schema)
	coords := make([]uint32, g.Dims())
	for _, t := range r.Tuples {
		for i, j := range ci {
			v := t[j].(int64)
			if v < 0 || uint64(v) >= g.Side() {
				return nil, fmt.Errorf("relation: coordinate %d outside grid %v", v, g)
			}
			coords[i] = uint32(v)
		}
		nt := append(append(Tuple(nil), t...), g.Shuffle(coords))
		out.Tuples = append(out.Tuples, nt)
	}
	return out, nil
}

// DecomposeObjects implements
//
//	R(p@, zr) := Decompose(P(p@, ...))
//
// for a catalog of spatial objects: each object becomes the set of
// tuples (id, element), flattened to 1NF as the paper describes.
type CatalogEntry struct {
	ID     uint64
	Object geom.Object
}

// DecomposeObjects decomposes every catalog object on grid g into an
// element relation with columns (idCol TID, zCol TElement).
func DecomposeObjects(g zorder.Grid, objs []CatalogEntry, opts decompose.Options, idCol, zCol string) (*Relation, error) {
	out := New(MustSchema(Column{Name: idCol, Type: TID}, Column{Name: zCol, Type: TElement}))
	for _, entry := range objs {
		elems, err := decompose.Object(g, entry.Object, opts)
		if err != nil {
			return nil, fmt.Errorf("relation: decompose object %d: %w", entry.ID, err)
		}
		for _, e := range elems {
			out.Tuples = append(out.Tuples, Tuple{entry.ID, e})
		}
	}
	return out, nil
}

// RangeSearchPlan executes the full Section 4 range-search strategy
// over a points relation with columns (idCol TID, xCol TInt, yCol
// TInt):
//
//	P(p@, zp, x, y) := Points[p@, shuffle([x:x, y:y]), x, y]
//	B(zb)           := Decompose(Box)
//	Result          := (P[zp <> zb]B)[x, y]
//
// It returns the projected (x, y) relation.
func RangeSearchPlan(g zorder.Grid, points *Relation, idCol, xCol, yCol string, box geom.Box) (*Relation, error) {
	if g.Dims() != 2 {
		return nil, fmt.Errorf("relation: RangeSearchPlan requires a 2-d grid")
	}
	p, err := ShufflePoints(g, points, idCol, []string{xCol, yCol}, "zp")
	if err != nil {
		return nil, err
	}
	b := New(MustSchema(Column{Name: "zb", Type: TElement}))
	for _, it := range core.AppendBoxItems(nil, g, box, 0) {
		b.Tuples = append(b.Tuples, Tuple{it.Elem})
	}
	joined, err := SpatialJoin(p, b, "zp", "zb")
	if err != nil {
		return nil, err
	}
	return Project(joined, xCol, yCol)
}
