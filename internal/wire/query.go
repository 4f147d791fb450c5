package wire

import (
	"fmt"

	"probe/internal/relation"
)

// This file defines the minor-3 QUERY message family: the request
// carrying spatial SQL text, the SCHEMA frame describing a result
// set, and the self-describing ROWS batches. A successful QUERY
// answers with exactly one SCHEMA frame, zero or more ROWS frames,
// and DONE; EXPLAIN statements answer with TEXT then DONE.

// Column value types of a QUERY result set (the Type byte of a
// SchemaMsg column and the per-column type array of a RowsMsg). The
// values deliberately match internal/relation's Type numbering for
// the wire-visible subset.
const (
	ColID     = 0 // u64 object identifier
	ColInt    = 1 // i64 (two's-complement in a u64 slot)
	ColFloat  = 2 // f64 (IEEE-754 bits in a u64 slot)
	ColString = 3 // length-prefixed UTF-8 bytes
)

// colTypeValid reports whether a column type byte is known to this
// version.
func colTypeValid(t uint8) bool { return t <= ColString }

// QueryReq ships one spatial SQL statement (docs/query.md defines the
// language). The response stream is typed by the statement: SCHEMA +
// ROWS* + DONE for selects, TEXT + DONE for EXPLAIN.
type QueryReq struct {
	Header
	Text string
}

func (m QueryReq) Encode() []byte { return m.Append(nil) }

func (m QueryReq) Append(b []byte) []byte {
	e := enc{b}
	m.Header.encodeTo(&e)
	putBytes(&e, m.Text)
	m.Header.encodeTail(&e)
	return e.b
}

func DecodeQueryReq(p []byte) (QueryReq, error) {
	d := dec{b: p}
	h, err := decodeHeader(&d)
	if err != nil {
		return QueryReq{}, err
	}
	text, err := d.bytes()
	if err != nil {
		return QueryReq{}, err
	}
	h.decodeTail(&d)
	return QueryReq{Header: h, Text: string(text)}, nil
}

// SchemaCol is one column of a QUERY result set, its Type one of the
// Col* values. It is the library's column (relation.Column), so a
// decoded schema is the client's as it stands.
type SchemaCol = relation.Column

// SchemaMsg describes a QUERY result set; it precedes the first ROWS
// frame so a client can decode rows streamingly.
type SchemaMsg struct {
	ID   uint32
	Cols []SchemaCol
}

func (m SchemaMsg) Encode() []byte { return m.Append(nil) }

func (m SchemaMsg) Append(b []byte) []byte {
	e := enc{b}
	e.u32(m.ID)
	e.u32(uint32(len(m.Cols)))
	for _, c := range m.Cols {
		putBytes(&e, c.Name)
		e.u8(uint8(c.Type))
	}
	return e.b
}

func DecodeSchemaMsg(p []byte) (SchemaMsg, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return SchemaMsg{}, err
	}
	// Each column is at least a 4-byte name length plus the type byte.
	n, err := d.count(5)
	if err != nil {
		return SchemaMsg{}, err
	}
	cols := make([]SchemaCol, n)
	for i := range cols {
		name, err := d.bytes()
		if err != nil {
			return SchemaMsg{}, err
		}
		t, err := d.u8()
		if err != nil {
			return SchemaMsg{}, err
		}
		if !colTypeValid(t) {
			return SchemaMsg{}, fmt.Errorf("wire: unknown column type %d", t)
		}
		cols[i] = SchemaCol{Name: string(name), Type: relation.Type(t)}
	}
	return SchemaMsg{ID: id, Cols: cols}, nil
}

// RowValue is one typed cell: uint64 for ColID, int64 for ColInt,
// float64 for ColFloat, string for ColString. It is the library's cell
// type (relation.Value), so neither end converts a row.
type RowValue = relation.Value

// RowsMsg is one batch of result rows. It is self-describing — the
// per-column type array repeats in every batch — so a frame can be
// decoded without held schema state. Rows are the library's rows
// (relation.Tuple), decoded into memory of their own, so a client
// hands them out without a copy.
type RowsMsg struct {
	ID    uint32
	Types []uint8
	Rows  []relation.Tuple
}

func rowsHeader(e *enc, id uint32, types []uint8) {
	e.u32(id)
	e.u32(uint32(len(types)))
	e.b = append(e.b, types...)
}

// BeginRows opens a ROWS frame at the end of b; AppendRow appends its
// records.
func BeginRows(b []byte, id uint32, types []uint8) ([]byte, Records) {
	e := enc{BeginFrame(b, MsgRows)}
	rowsHeader(&e, id, types)
	e.u32(0)
	return e.b, Records{start: len(b), count: len(e.b) - 4}
}

// AppendRow appends one row record, checking each value against its
// column's type.
func AppendRow(b []byte, types []uint8, row []RowValue) ([]byte, error) {
	if len(row) != len(types) {
		return b, fmt.Errorf("wire: row has %d values, schema %d", len(row), len(types))
	}
	e := enc{b}
	for i, v := range row {
		ok := false
		switch types[i] {
		case ColID:
			var u uint64
			u, ok = v.(uint64)
			e.u64(u)
		case ColInt:
			var iv int64
			iv, ok = v.(int64)
			e.u64(uint64(iv))
		case ColFloat:
			var f float64
			f, ok = v.(float64)
			e.u64(f64bits(f))
		case ColString:
			var s string
			s, ok = v.(string)
			putBytes(&e, s)
		default:
			return b, fmt.Errorf("wire: unknown column type %d", types[i])
		}
		if !ok {
			return b, fmt.Errorf("wire: column %d: %T does not fit column type %d", i, v, types[i])
		}
	}
	return e.b, nil
}

func (m RowsMsg) Encode() (b []byte, err error) {
	e := enc{}
	rowsHeader(&e, m.ID, m.Types)
	e.u32(uint32(len(m.Rows)))
	for _, row := range m.Rows {
		if e.b, err = AppendRow(e.b, m.Types, row); err != nil {
			return nil, err
		}
	}
	return e.b, nil
}

func DecodeRowsMsg(p []byte) (RowsMsg, error) {
	d := dec{b: p}
	id, err := d.u32()
	if err != nil {
		return RowsMsg{}, err
	}
	ncols, err := d.count(1)
	if err != nil {
		return RowsMsg{}, err
	}
	types := make([]uint8, ncols)
	minRow := 0
	for i := range types {
		t, err := d.u8()
		if err != nil {
			return RowsMsg{}, err
		}
		if !colTypeValid(t) {
			return RowsMsg{}, fmt.Errorf("wire: unknown column type %d", t)
		}
		types[i] = t
		if t == ColString {
			minRow += 4
		} else {
			minRow += 8
		}
	}
	if minRow == 0 {
		minRow = 1 // zero-column rows cannot bound the count; be conservative
	}
	nrows, err := d.count(minRow)
	if err != nil {
		return RowsMsg{}, err
	}
	// One arena for the batch's cells, sized by counts checked against
	// the bytes present (a row is at least 4 bytes a column); each row
	// is cut with its capacity clipped, as coordinates are.
	rows := make([]relation.Tuple, nrows)
	cells := make([]RowValue, nrows*ncols)
	for r := range rows {
		row := cells[:ncols:ncols]
		cells = cells[ncols:]
		for i, t := range types {
			if t == ColString {
				b, err := d.bytes()
				if err != nil {
					return RowsMsg{}, err
				}
				row[i] = string(b)
				continue
			}
			v, err := d.u64()
			if err != nil {
				return RowsMsg{}, err
			}
			switch t {
			case ColID:
				row[i] = v
			case ColInt:
				row[i] = int64(v)
			case ColFloat:
				row[i] = f64frombits(v)
			}
		}
		rows[r] = row
	}
	return RowsMsg{ID: id, Types: types, Rows: rows}, nil
}
