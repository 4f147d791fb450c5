package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"probe/internal/core"
	"probe/internal/relation"
)

// decoders is every Decode function, each with the least number of
// payload bytes one decoded record stands for: what dec.count holds a
// claimed count to, so that no decoder allocates by a number the bytes
// present do not back.
var decoders = []struct {
	name    string
	decode  func([]byte) (any, error)
	records func(any) int
	minRec  int
}{
	{"hello", func(p []byte) (any, error) { return DecodeHello(p) }, nil, 0},
	{"welcome", func(p []byte) (any, error) { return DecodeWelcome(p) },
		func(m any) int { return len(m.(Welcome).Bits) }, 4},
	{"range", func(p []byte) (any, error) { return DecodeRangeReq(p) },
		func(m any) int { return len(m.(RangeReq).Lo) + len(m.(RangeReq).Hi) }, 4},
	{"nearest", func(p []byte) (any, error) { return DecodeNearestReq(p) },
		func(m any) int { return len(m.(NearestReq).Q) }, 4},
	{"insert", func(p []byte) (any, error) { return DecodeInsertReq(p) },
		func(m any) int { return len(m.(InsertReq).Points) }, 12},
	{"delete", func(p []byte) (any, error) { return DecodeDeleteReq(p) },
		func(m any) int { return len(m.(DeleteReq).Points) }, 12},
	{"join", func(p []byte) (any, error) { return DecodeJoinReq(p) },
		func(m any) int { return len(m.(JoinReq).A) + len(m.(JoinReq).B) }, 16},
	{"simple", func(p []byte) (any, error) { return DecodeSimpleReq(p) }, nil, 0},
	{"cancel", func(p []byte) (any, error) { return DecodeCancel(p) }, nil, 0},
	{"batch", func(p []byte) (any, error) { return DecodeBatch(p) },
		func(m any) int { b := m.(Batch); return len(b.Points) + len(b.Pairs) + len(b.Neighbors) }, 8},
	{"done", func(p []byte) (any, error) { return DecodeDone(p) },
		func(m any) int { return len(m.(Done).Stats) + len(m.(Done).Timings) }, 8},
	{"text", func(p []byte) (any, error) { return DecodeTextMsg(p) },
		func(m any) int { return len(m.(TextMsg).Text) }, 1},
	{"trace", func(p []byte) (any, error) { return DecodeTraceMsg(p) },
		func(m any) int { return len(m.(TraceMsg).Span) }, 1},
	{"stats-kv", func(p []byte) (any, error) { return DecodeStatsKV(p) },
		func(m any) int { return len(m.(StatsKV).KVs) }, 12},
	{"error", func(p []byte) (any, error) { return DecodeErrorMsg(p) },
		func(m any) int { return len(m.(ErrorMsg).Msg) }, 1},
	{"query", func(p []byte) (any, error) { return DecodeQueryReq(p) },
		func(m any) int { return len(m.(QueryReq).Text) }, 1},
	{"schema", func(p []byte) (any, error) { return DecodeSchemaMsg(p) },
		func(m any) int { return len(m.(SchemaMsg).Cols) }, 5},
	{"rows", func(p []byte) (any, error) { return DecodeRowsMsg(p) },
		func(m any) int {
			r := m.(RowsMsg)
			return len(r.Types) + len(r.Rows)*max(1, 4*len(r.Types))
		}, 1},
}

// fuzzMessages builds, from the fuzz input, a BATCH of each kind and a
// ROWS of all four column types, to be sent through the codec.
func fuzzMessages(data []byte) (batches []Batch, rows RowsMsg) {
	next := func() uint64 {
		var b [8]byte
		data = data[copy(b[:], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	k := int(next()%3) + 1
	n := int(next() % 40)
	point := func() Point {
		p := Point{ID: next(), Coords: make([]uint32, k)}
		for i := range p.Coords {
			p.Coords[i] = uint32(next())
		}
		return p
	}
	pts := Batch{ID: uint32(next()), Kind: KindPoints, Dims: uint32(k), Points: make([]Point, n)}
	prs := Batch{ID: uint32(next()), Kind: KindPairs, Pairs: make([]core.Pair, n)}
	nbs := Batch{ID: uint32(next()), Kind: KindNeighbors, Dims: uint32(k), Neighbors: make([]Neighbor, n)}
	rows = RowsMsg{ID: uint32(next()), Types: []uint8{ColString, ColID, ColInt, ColFloat}, Rows: make([]relation.Tuple, n)}
	for i := 0; i < n; i++ {
		pts.Points[i] = point()
		prs.Pairs[i] = core.Pair{A: next(), B: next()}
		// Distances and floats from a small integer: no NaN, which
		// DeepEqual would not find equal to itself.
		nbs.Neighbors[i] = Neighbor{Point: point(), Dist: float64(int32(next())) / 8}
		text := string(data[:min(len(data), int(next()%9))])
		rows.Rows[i] = []RowValue{text, next(), int64(next()), float64(int32(next())) / 8}
	}
	return []Batch{pts, prs, nbs}, rows
}

// checkOwned decodes payload twice: once from a copy kept intact, once
// from a buffer that is scribbled over afterwards, as a connection's
// frame buffer is by the next frame. The two must stay equal; and
// after every record of one has been appended to (grow) and cut back
// (trim) they must still be equal, which they are not if an append
// reached into the next record's memory. Equal means the same bytes
// when encoded, which unlike DeepEqual holds for a NaN.
func checkOwned[M any](t *testing.T, payload []byte, decode func([]byte) (M, error), encode func(M) []byte, grow, trim func(*M)) {
	t.Helper()
	want, err := decode(bytes.Clone(payload))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	buf := bytes.Clone(payload)
	got, err := decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range buf {
		buf[i] ^= 0xa5
	}
	if !bytes.Equal(encode(got), encode(want)) {
		t.Fatalf("decoded message changed with its payload buffer:\n got %+v\nwant %+v", got, want)
	}
	grow(&got)
	trim(&got)
	if !bytes.Equal(encode(got), encode(want)) {
		t.Fatalf("appending to one record reached another:\n got %+v\nwant %+v", got, want)
	}
}

func growBatch(b *Batch) {
	for i := range b.Points {
		b.Points[i].Coords = append(b.Points[i].Coords, ^uint32(i))
	}
	for i := range b.Neighbors {
		b.Neighbors[i].Point.Coords = append(b.Neighbors[i].Point.Coords, ^uint32(i))
	}
}

func trimBatch(b *Batch) {
	for i := range b.Points {
		b.Points[i].Coords = b.Points[i].Coords[:b.Dims]
	}
	for i := range b.Neighbors {
		b.Neighbors[i].Point.Coords = b.Neighbors[i].Point.Coords[:b.Dims]
	}
}

func encodeRows(r RowsMsg) []byte {
	p, err := r.Encode()
	if err != nil {
		panic(err) // a decoded message always encodes
	}
	return p
}

func growRows(r *RowsMsg) {
	for i := range r.Rows {
		r.Rows[i] = append(r.Rows[i], i)
	}
}

func trimRows(r *RowsMsg) {
	for i := range r.Rows {
		r.Rows[i] = r.Rows[i][:len(r.Types)]
	}
}

func FuzzDecode(f *testing.F) {
	// The valid payloads of TestDecodeTruncated, and the hostile counts
	// of TestImplausibleCounts.
	f.Add(Hello{Major: 1}.Encode())
	f.Add(Welcome{Major: 1, Bits: []uint32{10, 10}}.Encode())
	f.Add(RangeReq{Lo: []uint32{1, 2}, Hi: []uint32{3, 4}}.Encode())
	f.Add(NearestReq{M: 1, Q: []uint32{1, 2}}.Encode())
	f.Add(InsertReq{Dims: 2, Points: []Point{{ID: 1, Coords: []uint32{1, 2}}}}.Encode())
	f.Add(JoinReq{Dims: 1, A: []JoinItem{{ID: 1, Lo: []uint32{0}, Hi: []uint32{1}}}}.Encode())
	f.Add(Batch{Kind: KindPoints, Dims: 1, Points: []Point{{ID: 1, Coords: []uint32{1}}}}.Encode())
	f.Add(Batch{Kind: KindNeighbors, Dims: 2, Neighbors: []Neighbor{{Point: Point{ID: 5, Coords: []uint32{9, 9}}, Dist: 2.5}}}.Encode())
	f.Add(Done{ID: 1, Stats: []uint64{1, 2}, Timings: []uint64{3, 4}}.Encode())
	f.Add(StatsKV{ID: 1, KVs: []KV{{Name: "x", Value: 2}}}.Encode())
	f.Add(TextMsg{ID: 1, Text: "x"}.Encode())
	f.Add(ErrorMsg{ID: 1, Code: 1, Msg: "x"}.Encode())
	f.Add(SchemaMsg{ID: 7, Cols: []SchemaCol{{Name: "id", Type: ColID}, {Name: "label", Type: ColString}}}.Encode())
	rows, _ := RowsMsg{ID: 7, Types: []uint8{ColID, ColString}, Rows: []relation.Tuple{{uint64(1), "a"}}}.Encode()
	f.Add(rows)
	var e enc
	Header{ID: 1}.encodeTo(&e)
	e.u32(2)
	e.u32(1 << 31)
	e.u64(7)
	f.Add(e.b)
	f.Add(append(append([]byte(Magic), 1, 0), 0xe8, 0x03, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: no decoder panics, and none returns more
		// records than the bytes present could hold.
		for _, d := range decoders {
			m, err := d.decode(data)
			if err == nil && d.records != nil && d.records(m)*d.minRec > len(data) {
				t.Fatalf("%s: %d records of at least %d bytes decoded from %d bytes", d.name, d.records(m), d.minRec, len(data))
			}
		}
		if _, err := DecodeBatch(data); err == nil {
			checkOwned(t, data, DecodeBatch, Batch.Encode, growBatch, trimBatch)
		}
		if _, err := DecodeRowsMsg(data); err == nil {
			checkOwned(t, data, DecodeRowsMsg, encodeRows, growRows, trimRows)
		}

		// Messages built from the input: Decode(Encode(x)) == x, and x
		// owns its memory.
		batches, rm := fuzzMessages(data)
		for _, b := range batches {
			got, err := DecodeBatch(b.Encode())
			if err != nil || !reflect.DeepEqual(got, b) {
				t.Fatalf("batch kind %d round trip: %v\n got %+v\nwant %+v", b.Kind, err, got, b)
			}
			checkOwned(t, b.Encode(), DecodeBatch, Batch.Encode, growBatch, trimBatch)
		}
		payload, err := rm.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRowsMsg(payload)
		if err != nil || !reflect.DeepEqual(got, rm) {
			t.Fatalf("rows round trip: %v\n got %+v\nwant %+v", err, got, rm)
		}
		checkOwned(t, payload, DecodeRowsMsg, encodeRows, growRows, trimRows)
	})
}
