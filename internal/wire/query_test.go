package wire

import (
	"reflect"
	"testing"

	"probe/internal/relation"
)

func TestQueryMessageRoundTrips(t *testing.T) {
	req := QueryReq{
		Header: Header{ID: 7, TimeoutMS: 250, Flags: FlagTrace},
		Text:   "SELECT * FROM points WHERE CONTAINS(BOX(0, 10, 0, 10))",
	}
	gotReq, err := DecodeQueryReq(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Errorf("QueryReq round trip: %+v != %+v", gotReq, req)
	}

	schema := SchemaMsg{ID: 7, Cols: []SchemaCol{
		{Name: "id", Type: ColID},
		{Name: "x", Type: ColInt},
		{Name: "dist", Type: ColFloat},
		{Name: "label", Type: ColString},
	}}
	gotSchema, err := DecodeSchemaMsg(schema.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(schema, gotSchema) {
		t.Errorf("SchemaMsg round trip: %+v != %+v", gotSchema, schema)
	}

	rows := RowsMsg{
		ID:    7,
		Types: []uint8{ColID, ColInt, ColFloat, ColString},
		Rows: []relation.Tuple{
			{uint64(1), int64(-5), 2.5, "a"},
			{uint64(2), int64(9), -0.25, ""},
		},
	}
	payload, err := rows.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotRows, err := DecodeRowsMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, gotRows) {
		t.Errorf("RowsMsg round trip:\n%+v\n!=\n%+v", gotRows, rows)
	}

	// Empty row batches (a query with zero results still sends DONE
	// directly, but an empty batch must survive the codec).
	empty := RowsMsg{ID: 1, Types: []uint8{ColID}, Rows: []relation.Tuple{}}
	payload, err = empty.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotEmpty, err := DecodeRowsMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEmpty.Rows) != 0 || len(gotEmpty.Types) != 1 {
		t.Errorf("empty RowsMsg round trip: %+v", gotEmpty)
	}
}

func TestQueryDecodeRejects(t *testing.T) {
	// Unknown column type in a schema.
	bad := SchemaMsg{ID: 1, Cols: []SchemaCol{{Name: "id", Type: 99}}}
	if _, err := DecodeSchemaMsg(bad.Encode()); err == nil {
		t.Error("DecodeSchemaMsg accepted unknown column type")
	}
	// Unknown column type in a row batch.
	raw := RowsMsg{ID: 1, Types: []uint8{ColID}, Rows: nil}
	payload, err := raw.Encode()
	if err != nil {
		t.Fatal(err)
	}
	payload[8] = 99 // the single type byte follows id u32 + count u32
	if _, err := DecodeRowsMsg(payload); err == nil {
		t.Error("DecodeRowsMsg accepted unknown column type")
	}
	// Mismatched row width fails encode, not a panic.
	miswidth := RowsMsg{ID: 1, Types: []uint8{ColID, ColInt}, Rows: []relation.Tuple{{uint64(1)}}}
	if _, err := miswidth.Encode(); err == nil {
		t.Error("RowsMsg.Encode accepted a short row")
	}
	// Wrongly typed value fails encode.
	mistyped := RowsMsg{ID: 1, Types: []uint8{ColID}, Rows: []relation.Tuple{{"not a u64"}}}
	if _, err := mistyped.Encode(); err == nil {
		t.Error("RowsMsg.Encode accepted a mistyped value")
	}
	// Truncated payloads error cleanly.
	full, err := RowsMsg{ID: 1, Types: []uint8{ColString}, Rows: []relation.Tuple{{"hello"}}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := DecodeRowsMsg(full[:n]); err == nil {
			t.Errorf("DecodeRowsMsg accepted truncation at %d", n)
		}
	}
	// Implausible row count is rejected before allocation.
	var e enc
	e.u32(1)          // id
	e.u32(1)          // one column
	e.u8(ColID)       // of type id
	e.u32(0xffffffff) // claiming 4 billion rows
	if _, err := DecodeRowsMsg(e.b); err == nil {
		t.Error("DecodeRowsMsg accepted implausible row count")
	}
}
