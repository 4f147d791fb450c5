package query

import (
	"math"
	"strings"
)

// MaxQueryLen caps statement text; longer inputs are rejected before
// lexing so a hostile client cannot make the parser chew megabytes.
const MaxQueryLen = 1 << 20

// tokKind enumerates lexical token classes.
type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tLParen
	tRParen
	tComma
	tStar
	tCmp // text holds the operator: = != < <= > >=
)

type token struct {
	kind tokKind
	pos  int    // byte offset of the first character
	text string // ident: original spelling; cmp: canonical operator
	num  uint64 // number value
}

// lexer produces tokens from statement text. It never panics: every
// malformed input surfaces as a *Error with KindParse.
type lexer struct {
	src string
	pos int
}

func (lx *lexer) next() (token, *Error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			// -- line comment, for REPL and corpus files.
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tEOF, pos: lx.pos}, nil

scan:
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.pos++
		}
		return token{kind: tIdent, pos: start, text: lx.src[start:lx.pos]}, nil
	case c >= '0' && c <= '9':
		var v uint64
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			d := uint64(lx.src[lx.pos] - '0')
			if v > (math.MaxUint64-d)/10 {
				return token{}, parseErrf(start, "number too large")
			}
			v = v*10 + d
			lx.pos++
		}
		if lx.pos < len(lx.src) && isIdentStart(lx.src[lx.pos]) {
			return token{}, parseErrf(lx.pos, "malformed number")
		}
		return token{kind: tNumber, pos: start, num: v}, nil
	case c == '(':
		lx.pos++
		return token{kind: tLParen, pos: start}, nil
	case c == ')':
		lx.pos++
		return token{kind: tRParen, pos: start}, nil
	case c == ',':
		lx.pos++
		return token{kind: tComma, pos: start}, nil
	case c == '*':
		lx.pos++
		return token{kind: tStar, pos: start}, nil
	case c == '=':
		lx.pos++
		return token{kind: tCmp, pos: start, text: "="}, nil
	case c == '!':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{kind: tCmp, pos: start, text: "!="}, nil
		}
		return token{}, parseErrf(start, "unexpected character %q", string(c))
	case c == '<':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{kind: tCmp, pos: start, text: "<="}, nil
		}
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '>' {
			lx.pos++ // <> is an accepted alias for !=
			return token{kind: tCmp, pos: start, text: "!="}, nil
		}
		return token{kind: tCmp, pos: start, text: "<"}, nil
	case c == '>':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{kind: tCmp, pos: start, text: ">="}, nil
		}
		return token{kind: tCmp, pos: start, text: ">"}, nil
	}
	return token{}, parseErrf(start, "unexpected character %q", string(c))
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// keywords are reserved: they parse as keywords everywhere, so none
// can be used as a column or alias name.
var keywords = []string{
	"EXPLAIN", "SELECT", "DISTINCT", "AS", "FROM", "JOIN", "REGIONS", "ON",
	"WHERE", "AND", "GROUP", "ORDER", "BY", "ASC", "DESC", "LIMIT",
	"CONTAINS", "INTERSECTS", "NEAREST", "BOX", "POINT",
	"COUNT", "SUM", "MIN", "MAX",
}

// parser is the recursive-descent parser. It holds one token of
// lookahead.
type parser struct {
	lx  lexer
	tok token
}

// Parse parses one statement. All failures are *Error with KindParse;
// the parser never panics on any input (FuzzParseQuery enforces this
// together with the String() round-trip property).
func Parse(text string) (*Statement, error) {
	if len(text) > MaxQueryLen {
		return nil, parseErrf(0, "statement longer than %d bytes", MaxQueryLen)
	}
	p := &parser{lx: lexer{src: text}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	st := &Statement{}
	if p.atKeyword("EXPLAIN") {
		st.Explain = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	st.Select = sel
	if p.tok.kind != tEOF {
		return nil, parseErrf(p.tok.pos, "trailing input after statement")
	}
	return st, nil
}

func (p *parser) advance() *Error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// kw returns the uppercase keyword spelling of the current token if
// it is a reserved word, else "". It compares without folding a copy,
// so a lookahead allocates nothing.
func (p *parser) kw() string {
	if p.tok.kind == tIdent {
		for _, k := range keywords {
			if len(k) == len(p.tok.text) && strings.EqualFold(k, p.tok.text) {
				return k
			}
		}
	}
	return ""
}

func (p *parser) atKeyword(k string) bool { return p.kw() == k }

func (p *parser) expectKeyword(k string) *Error {
	if !p.atKeyword(k) {
		return parseErrf(p.tok.pos, "expected %s", k)
	}
	return p.advance()
}

func (p *parser) expect(kind tokKind, what string) *Error {
	if p.tok.kind != kind {
		return parseErrf(p.tok.pos, "expected %s", what)
	}
	return p.advance()
}

// ident consumes a non-reserved identifier.
func (p *parser) ident(what string) (string, *Error) {
	if p.tok.kind != tIdent {
		return "", parseErrf(p.tok.pos, "expected %s", what)
	}
	if p.kw() != "" {
		return "", parseErrf(p.tok.pos, "%s is a reserved word; cannot be used as %s", strings.ToUpper(p.tok.text), what)
	}
	name := p.tok.text
	return name, p.advance()
}

// number consumes an unsigned integer literal with an upper bound.
func (p *parser) number(max uint64, what string) (uint64, *Error) {
	if p.tok.kind != tNumber {
		return 0, parseErrf(p.tok.pos, "expected %s", what)
	}
	v := p.tok.num
	if v > max {
		return 0, parseErrf(p.tok.pos, "%s %d out of range (max %d)", what, v, max)
	}
	return v, p.advance()
}

func (p *parser) parseSelect() (*Select, *Error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	if p.atKeyword("DISTINCT") {
		sel.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind == tStar {
		sel.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for {
			it, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			sel.Items = append(sel.Items, it)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.atKeyword("JOIN") {
		j, err := p.parseJoin()
		if err != nil {
			return nil, err
		}
		sel.Join = j
	}
	if p.atKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			pred, err := p.parsePred()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, pred)
			if !p.atKeyword("AND") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident("group column")
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, col)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident("order column")
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: col}
			switch p.kw() {
			case "ASC":
				if err := p.advance(); err != nil {
					return nil, err
				}
			case "DESC":
				key.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, key)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("LIMIT") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.number(math.MaxInt64, "LIMIT")
		if err != nil {
			return nil, err
		}
		sel.Limit = int64(n)
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, *Error) {
	var it SelectItem
	switch p.kw() {
	case "COUNT":
		it.Agg = AggCount
	case "SUM":
		it.Agg = AggSum
	case "MIN":
		it.Agg = AggMin
	case "MAX":
		it.Agg = AggMax
	}
	if it.Agg != AggNone {
		if err := p.advance(); err != nil {
			return it, err
		}
		if err := p.expect(tLParen, "("); err != nil {
			return it, err
		}
		if p.tok.kind == tStar {
			if it.Agg != AggCount {
				return it, parseErrf(p.tok.pos, "%v(*) is not valid; only COUNT(*)", it.Agg)
			}
			it.Col = "*"
			if err := p.advance(); err != nil {
				return it, err
			}
		} else {
			col, err := p.ident("aggregate column")
			if err != nil {
				return it, err
			}
			it.Col = col
		}
		if err := p.expect(tRParen, ")"); err != nil {
			return it, err
		}
	} else {
		col, err := p.ident("column name")
		if err != nil {
			return it, err
		}
		it.Col = col
	}
	if p.atKeyword("AS") {
		if err := p.advance(); err != nil {
			return it, err
		}
		as, err := p.ident("alias")
		if err != nil {
			return it, err
		}
		it.As = as
	}
	return it, nil
}

func (p *parser) parseJoin() (*Join, *Error) {
	if err := p.expectKeyword("JOIN"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("REGIONS"); err != nil {
		return nil, err
	}
	if err := p.expect(tLParen, "("); err != nil {
		return nil, err
	}
	j := &Join{}
	for {
		id, err := p.number(math.MaxUint64, "region id")
		if err != nil {
			return nil, err
		}
		box, err := p.parseBox()
		if err != nil {
			return nil, err
		}
		j.Regions = append(j.Regions, Region{ID: id, Box: box})
		if p.tok.kind != tComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tRParen, ")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTERSECTS"); err != nil {
		return nil, err
	}
	return j, nil
}

func (p *parser) parsePred() (Pred, *Error) {
	switch p.kw() {
	case "CONTAINS", "INTERSECTS":
		contains := p.kw() == "CONTAINS"
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tLParen, "("); err != nil {
			return nil, err
		}
		box, err := p.parseBox()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen, ")"); err != nil {
			return nil, err
		}
		return &BoxPred{Contains: contains, Box: box}, nil
	case "NEAREST":
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(tLParen, "("); err != nil {
			return nil, err
		}
		pt, err := p.parsePoint()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tComma, ","); err != nil {
			return nil, err
		}
		k, err := p.number(math.MaxInt32, "NEAREST k")
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen, ")"); err != nil {
			return nil, err
		}
		return &NearestPred{Point: pt, K: int64(k)}, nil
	}
	col, err := p.ident("predicate")
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tCmp {
		return nil, parseErrf(p.tok.pos, "expected comparison operator")
	}
	var op CmpOp
	switch p.tok.text {
	case "=":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	v, err := p.number(math.MaxInt64, "comparison value")
	if err != nil {
		return nil, err
	}
	return &CmpPred{Col: col, Op: op, Value: int64(v)}, nil
}

// parseBox parses BOX(lo1, hi1, lo2, hi2, ...). Dimension count is
// checked at compile time against the database grid; coordinate range
// (uint32) is a lexical property checked here.
func (p *parser) parseBox() (BoxLit, *Error) {
	if err := p.expectKeyword("BOX"); err != nil {
		return BoxLit{}, err
	}
	vs, err := p.u32List()
	if err != nil {
		return BoxLit{}, err
	}
	return BoxLit{Bounds: vs}, nil
}

func (p *parser) parsePoint() (PointLit, *Error) {
	if err := p.expectKeyword("POINT"); err != nil {
		return PointLit{}, err
	}
	vs, err := p.u32List()
	if err != nil {
		return PointLit{}, err
	}
	return PointLit{Coords: vs}, nil
}

func (p *parser) u32List() ([]uint32, *Error) {
	if err := p.expect(tLParen, "("); err != nil {
		return nil, err
	}
	vs := make([]uint32, 0, 4) // a 2-d box in one allocation
	for {
		v, err := p.number(math.MaxUint32, "coordinate")
		if err != nil {
			return nil, err
		}
		vs = append(vs, uint32(v))
		if p.tok.kind != tComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tRParen, ")"); err != nil {
		return nil, err
	}
	return vs, nil
}
