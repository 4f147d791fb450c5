// Package query implements the spatial query language: a small SQL
// dialect over the point index — SELECT with spatial predicates
// (CONTAINS, INTERSECTS, NEAREST), region joins, GROUP BY, ORDER BY
// and LIMIT — parsed by a hand-written recursive-descent parser into
// a typed AST, compiled into a plan whose operators run over
// fixed-width cells, and executed streaming (compile.go;
// internal/relation is its test oracle). It is the relational
// spatial language the paper argues belongs inside the DBMS, serving
// as the text protocol of the QUERY opcode (wire 1.3).
//
// The full grammar is documented in docs/query.md.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// ErrorKind distinguishes the two typed failure classes a statement
// can hit before execution; the wire protocol maps them to distinct
// error codes (CodeParse, CodePlan).
type ErrorKind int

const (
	// KindParse marks lexical and syntactic errors: the text is not a
	// well-formed statement.
	KindParse ErrorKind = iota + 1
	// KindPlan marks semantic errors from compilation: the statement
	// parsed but cannot run against this database (unknown column,
	// dimension mismatch, invalid aggregate...).
	KindPlan
)

// Error is the typed error every Parse/Compile failure returns.
type Error struct {
	Kind ErrorKind
	// Pos is the byte offset into the statement text where the error
	// was detected (parse errors only; -1 when not applicable).
	Pos int
	Msg string
}

// Error implements error.
func (e *Error) Error() string {
	switch {
	case e.Kind == KindParse && e.Pos >= 0:
		return fmt.Sprintf("parse error at offset %d: %s", e.Pos, e.Msg)
	case e.Kind == KindParse:
		return "parse error: " + e.Msg
	default:
		return "plan error: " + e.Msg
	}
}

func parseErrf(pos int, format string, args ...interface{}) *Error {
	return &Error{Kind: KindParse, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func planErrf(format string, args ...interface{}) *Error {
	return &Error{Kind: KindPlan, Pos: -1, Msg: fmt.Sprintf(format, args...)}
}

// Statement is one parsed statement: a SELECT, optionally wrapped in
// EXPLAIN.
type Statement struct {
	Explain bool
	Select  *Select
}

// Select is the SELECT clause tree.
type Select struct {
	Distinct bool
	// Star is SELECT *; Items is nil when set.
	Star  bool
	Items []SelectItem
	From  string
	Join  *Join
	// Where is the AND-list of predicates (nil when absent).
	Where   []Pred
	GroupBy []string
	OrderBy []OrderKey
	// Limit is -1 when absent.
	Limit int64
}

// AggFunc is an aggregate in a select item.
type AggFunc int

const (
	// AggNone marks a plain column reference.
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", int(f))
}

// SelectItem is one output column: a plain column or an aggregate,
// optionally renamed with AS.
type SelectItem struct {
	Agg AggFunc
	// Col is the column name; "*" only for COUNT(*).
	Col string
	As  string
}

// Join is the region join clause: JOIN REGIONS(...) ON INTERSECTS.
type Join struct {
	Regions []Region
}

// Region is one inline region literal: an id and a box.
type Region struct {
	ID  uint64
	Box BoxLit
}

// BoxLit is a box literal: per-dimension (lo, hi) pairs in dimension
// order — BOX(xlo, xhi, ylo, yhi, ...).
type BoxLit struct {
	Bounds []uint32
}

// PointLit is a point literal: POINT(x, y, ...).
type PointLit struct {
	Coords []uint32
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Col  string
	Desc bool
}

// CmpOp is a comparison operator.
type CmpOp int

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Pred is one WHERE predicate.
type Pred interface {
	isPred()
	String() string
}

// BoxPred is CONTAINS(box) or INTERSECTS(box). On a point index the
// two are equivalent (a point intersects a box iff the box contains
// it); both spellings are kept so the AST round-trips.
type BoxPred struct {
	// Contains distinguishes the CONTAINS spelling from INTERSECTS.
	Contains bool
	Box      BoxLit
}

// NearestPred is NEAREST(point, k).
type NearestPred struct {
	Point PointLit
	K     int64
}

// CmpPred compares a column against an integer literal.
type CmpPred struct {
	Col   string
	Op    CmpOp
	Value int64
}

func (*BoxPred) isPred()     {}
func (*NearestPred) isPred() {}
func (*CmpPred) isPred()     {}

// String renders the statement in canonical form: uppercase keywords,
// single spaces, explicit DESC only. The round-trip property the
// fuzzer enforces is Parse(s).String() parses to an equal AST.
func (st *Statement) String() string {
	var b strings.Builder
	if st.Explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString(st.Select.String())
	return b.String()
}

// String renders the SELECT in canonical form.
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(s.From)
	if s.Join != nil {
		b.WriteString(" JOIN REGIONS(")
		for i, r := range s.Join.Regions {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatUint(r.ID, 10))
			b.WriteString(" ")
			b.WriteString(r.Box.String())
		}
		b.WriteString(") ON INTERSECTS")
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(s.GroupBy, ", "))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.Col)
			if k.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.FormatInt(s.Limit, 10))
	}
	return b.String()
}

func (it SelectItem) String() string {
	var b strings.Builder
	if it.Agg == AggNone {
		b.WriteString(it.Col)
	} else {
		b.WriteString(it.Agg.String())
		b.WriteString("(")
		b.WriteString(it.Col)
		b.WriteString(")")
	}
	if it.As != "" {
		b.WriteString(" AS ")
		b.WriteString(it.As)
	}
	return b.String()
}

func (bx BoxLit) String() string {
	return "BOX(" + joinU32(bx.Bounds) + ")"
}

func (p PointLit) String() string {
	return "POINT(" + joinU32(p.Coords) + ")"
}

func joinU32(vs []uint32) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatUint(uint64(v), 10)
	}
	return strings.Join(parts, ", ")
}

func (p *BoxPred) String() string {
	if p.Contains {
		return "CONTAINS(" + p.Box.String() + ")"
	}
	return "INTERSECTS(" + p.Box.String() + ")"
}

func (p *NearestPred) String() string {
	return fmt.Sprintf("NEAREST(%s, %d)", p.Point.String(), p.K)
}

func (p *CmpPred) String() string {
	return fmt.Sprintf("%s %s %d", p.Col, p.Op, p.Value)
}
