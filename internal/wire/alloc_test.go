//go:build !race

package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"probe/internal/relation"
)

// TestAllocGateDecodeBatch: what a client allocates per batch it
// decodes is fixed, not per record. A BATCH of points is the slice of
// points and one coordinate arena; a ROWS frame is the type array, the
// slice of rows and one cell arena, plus the box Go makes for each
// value that goes into an interface. Exact counts, so the file is left
// out of -race builds; CI runs `-run TestAllocGate` as its own step.
func TestAllocGateDecodeBatch(t *testing.T) {
	const n = 512
	b := Batch{ID: 1, Kind: KindPoints, Dims: 2, Points: make([]Point, n)}
	rm := RowsMsg{ID: 1, Types: []uint8{ColID}, Rows: make([]relation.Tuple, n)}
	for i := range b.Points {
		b.Points[i] = Point{ID: uint64(i), Coords: []uint32{uint32(i), uint32(2 * i)}}
		rm.Rows[i] = []RowValue{uint64(1000 + i)} // above the small values Go boxes for free
	}
	batch := b.Encode()
	rows, err := rm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded := 0
	if allocs := testing.AllocsPerRun(100, func() {
		got, _ := DecodeBatch(batch)
		decoded += len(got.Points)
	}); allocs != 2 {
		t.Errorf("decoding a %d-point BATCH cost %v allocs, want 2", n, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		got, _ := DecodeRowsMsg(rows)
		decoded += len(got.Rows)
	}); allocs != 3+n {
		t.Errorf("decoding a %d-row ROWS frame cost %v allocs, want 3 and one box a value", n, allocs)
	}
	if decoded != 2*101*n {
		t.Errorf("decoded %d records, want %d", decoded, 2*101*n)
	}
}

// TestAllocGateFrameRoundTrip: a frame encoded behind its header into
// a buffer that has held one before, and read into a buffer that has,
// allocates nothing.
func TestAllocGateFrameRoundTrip(t *testing.T) {
	req := RangeReq{Header: Header{ID: 7, TimeoutMS: 50}, Lo: []uint32{1, 2}, Hi: []uint32{30, 40}}
	var out, in []byte
	r := bytes.NewReader(nil)
	var id uint32
	if allocs := testing.AllocsPerRun(100, func() {
		out, _ = AppendFrame(out[:0], MsgRange, req)
		r.Reset(out)
		typ, p, err := ReadFrameInto(r, &in)
		if err == nil && typ == MsgRange {
			id += binary.LittleEndian.Uint32(p)
		}
	}); allocs != 0 {
		t.Errorf("frame round trip through warm buffers cost %v allocs, want 0", allocs)
	}
	if id != 7*101 {
		t.Errorf("read back id sum %d, want %d", id, 7*101)
	}
}
