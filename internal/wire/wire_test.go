package wire

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"probe/internal/core"
)

// TestFrameRoundTrip: frames written with WriteFrame come back from
// ReadFrame byte-identical, across payload sizes including empty.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	type frame struct {
		typ     uint8
		payload []byte
	}
	var want []frame
	for i := 0; i < 50; i++ {
		p := make([]byte, rng.Intn(2000))
		rng.Read(p)
		f := frame{typ: uint8(rng.Intn(256)), payload: p}
		want = append(want, f)
		if err := WriteFrame(&buf, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range want {
		typ, p, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != f.typ || !bytes.Equal(p, f.payload) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

// TestFrameErrors: zero and oversized lengths are rejected; a
// truncated frame reads as unexpected EOF, not clean EOF.
func TestFrameErrors(t *testing.T) {
	if err := WriteFrame(io.Discard, MsgBatch, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Fatal("oversized length accepted")
	}
	// Length says 10 bytes but only 3 follow.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{10, 0, 0, 0, MsgDone, 1, 2})); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: got %v, want unexpected EOF", err)
	}
}

// TestMessageRoundTrips: every message type encodes and decodes to an
// equal value.
func TestMessageRoundTrips(t *testing.T) {
	check := func(name string, got, want any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, want)
		}
	}

	hello := Hello{Major: 1, Minor: 3}
	gh, err := DecodeHello(hello.Encode())
	check("hello", gh, hello, err)

	wel := Welcome{Major: 1, Minor: 0, Bits: []uint32{10, 10}}
	gw, err := DecodeWelcome(wel.Encode())
	check("welcome", gw, wel, err)

	rr := RangeReq{Header: Header{ID: 7, TimeoutMS: 1500, Flags: FlagTrace, Trace: 0xdeadbeefcafe0123},
		Lo: []uint32{1, 2}, Hi: []uint32{30, 40}}
	gr, err := DecodeRangeReq(rr.Encode())
	check("range", gr, rr, err)

	nr := NearestReq{Header: Header{ID: 8, Flags: FlagTrace}, Metric: 1, M: 5, Q: []uint32{100, 200, 300}}
	gn, err := DecodeNearestReq(nr.Encode())
	check("nearest", gn, nr, err)

	ir := InsertReq{Header: Header{ID: 9}, Dims: 2, Points: []Point{
		{ID: 1, Coords: []uint32{5, 6}},
		{ID: 2, Coords: []uint32{7, 8}},
	}}
	gi, err := DecodeInsertReq(ir.Encode())
	check("insert", gi, ir, err)

	dr := DeleteReq{Header: Header{ID: 12, TimeoutMS: 250}, Dims: 2, Points: []Point{
		{ID: 3, Coords: []uint32{9, 10}},
		{ID: 4, Coords: []uint32{11, 12}},
	}}
	gdr, err := DecodeDeleteReq(dr.Encode())
	check("delete", gdr, dr, err)

	jr := JoinReq{Header: Header{ID: 10, TimeoutMS: 100}, Workers: 4, Dims: 2,
		A: []JoinItem{{ID: 1, Lo: []uint32{0, 0}, Hi: []uint32{5, 5}}},
		B: []JoinItem{{ID: 2, Lo: []uint32{3, 3}, Hi: []uint32{9, 9}},
			{ID: 3, Lo: []uint32{6, 6}, Hi: []uint32{7, 7}}},
	}
	gj, err := DecodeJoinReq(jr.Encode())
	check("join", gj, jr, err)

	sr := SimpleReq{Header: Header{ID: 11}}
	gs, err := DecodeSimpleReq(sr.Encode())
	check("simple", gs, sr, err)

	cn := Cancel{ID: 7}
	gc, err := DecodeCancel(cn.Encode())
	check("cancel", gc, cn, err)

	bp := Batch{ID: 7, Kind: KindPoints, Dims: 2, Points: []Point{
		{ID: 42, Coords: []uint32{1, 2}},
	}}
	gbp, err := DecodeBatch(bp.Encode())
	check("batch-points", gbp, bp, err)

	bq := Batch{ID: 7, Kind: KindPairs, Dims: 0, Pairs: []core.Pair{{A: 1, B: 2}, {A: 3, B: 4}}}
	gbq, err := DecodeBatch(bq.Encode())
	check("batch-pairs", gbq, bq, err)

	bn := Batch{ID: 7, Kind: KindNeighbors, Dims: 2, Neighbors: []Neighbor{
		{Point: Point{ID: 5, Coords: []uint32{9, 9}}, Dist: 2.5},
	}}
	gbn, err := DecodeBatch(bn.Encode())
	check("batch-neighbors", gbn, bn, err)

	dn := Done{ID: 7, Stats: make([]uint64, NumStats)}
	dn.Stats[StatResults] = 12
	dn.Stats[StatDataPages] = 3
	gd, err := DecodeDone(dn.Encode())
	check("done", gd, dn, err)
	if gd.Stat(StatResults) != 12 || gd.Stat(NumStats+5) != 0 {
		t.Fatal("Done.Stat accessor wrong")
	}

	dt := Done{ID: 7, Stats: []uint64{1, 2}, Timings: make([]uint64, NumTimings)}
	dt.Timings[TimingExec] = 1500
	dt.Timings[TimingTotal] = 2000
	gdt, err := DecodeDone(dt.Encode())
	check("done-timings", gdt, dt, err)
	if gdt.Timing(TimingExec) != 1500 || gdt.Timing(NumTimings+3) != 0 {
		t.Fatal("Done.Timing accessor wrong")
	}

	kv := StatsKV{ID: 7, KVs: []KV{
		{Name: "server.requests", Value: 42},
		{Name: "server.latency.range.p99", Value: 1234567},
	}}
	gkv, err := DecodeStatsKV(kv.Encode())
	check("stats-kv", gkv, kv, err)

	tm := TextMsg{ID: 7, Text: "plan: index-scan"}
	gt, err := DecodeTextMsg(tm.Encode())
	check("text", gt, tm, err)

	em := ErrorMsg{ID: 7, Code: CodeOverloaded, Msg: "too busy"}
	ge, err := DecodeErrorMsg(em.Encode())
	check("error", ge, em, err)

	tr := TraceMsg{ID: 7, TraceID: 0x0123456789abcdef, Span: []byte{1, 2, 3, 4}}
	gtr, err := DecodeTraceMsg(tr.Encode())
	check("trace", gtr, tr, err)
}

// TestHeaderTraceTail: the minor-4 trace ID tail. An older payload
// ending at the flags byte decodes as Trace == 0; a 1.0 payload with
// neither flags nor trace decodes as both zero; the full tail round-
// trips.
func TestHeaderTraceTail(t *testing.T) {
	full := SimpleReq{Header: Header{ID: 5, Flags: FlagTrace, Trace: 42}}.Encode()
	got, err := DecodeSimpleReq(full)
	if err != nil || got.Trace != 42 || got.Flags != FlagTrace {
		t.Fatalf("full tail: %+v, %v", got, err)
	}
	// 1.1–1.3 form: header + flags, no trace.
	got, err = DecodeSimpleReq(full[:len(full)-8])
	if err != nil || got.Trace != 0 || got.Flags != FlagTrace {
		t.Fatalf("flags-only tail: %+v, %v", got, err)
	}
	// 1.0 form: header only.
	got, err = DecodeSimpleReq(full[:len(full)-9])
	if err != nil || got.Trace != 0 || got.Flags != 0 {
		t.Fatalf("bare header: %+v, %v", got, err)
	}
}

// TestDecodeTruncated: every decoder fails cleanly (no panic) on
// every strict prefix of a valid payload — except the prefixes that
// are themselves valid older-minor payloads. Requests carry a
// trailing minor-1 flags byte plus a minor-4 u64 trace ID, so any cut
// at or after the flags byte's position is a legal older form (a cut
// inside the trace ID reads as a 1.1 payload with trailing garbage,
// which the additive promise ignores); Done's timing array is an
// optional tail, so any cut before its count field decodes as a 1.0
// Done.
func TestDecodeTruncated(t *testing.T) {
	// okPrefix(full, n) reports whether a prefix of n bytes is a
	// legal older-minor payload rather than a truncation.
	strict := func(full []byte, n int) bool { return false }
	flagTail := func(full []byte, n int) bool { return n >= len(full)-9 }

	dn := Done{ID: 1, Stats: []uint64{1, 2}, Timings: []uint64{3, 4}}
	dnStatsEnd := len(Done{ID: 1, Stats: []uint64{1, 2}}.Encode()) - 4 // minus the empty timing count
	doneTail := func(full []byte, n int) bool {
		// A cut at the end of the stats array — or inside the first
		// three bytes after it, which an old decoder skips as trailing
		// garbage — is a valid 1.0 Done.
		return n >= dnStatsEnd && n < dnStatsEnd+4
	}

	payloads := map[string]struct {
		full   []byte
		ok     func([]byte, int) bool
		decode func([]byte) error
	}{
		"hello":   {Hello{Major: 1}.Encode(), strict, func(p []byte) error { _, err := DecodeHello(p); return err }},
		"welcome": {Welcome{Major: 1, Bits: []uint32{10, 10}}.Encode(), strict, func(p []byte) error { _, err := DecodeWelcome(p); return err }},
		"range": {RangeReq{Lo: []uint32{1, 2}, Hi: []uint32{3, 4}}.Encode(), flagTail,
			func(p []byte) error { _, err := DecodeRangeReq(p); return err }},
		"nearest": {NearestReq{M: 1, Q: []uint32{1, 2}}.Encode(), flagTail,
			func(p []byte) error { _, err := DecodeNearestReq(p); return err }},
		"insert": {InsertReq{Dims: 2, Points: []Point{{ID: 1, Coords: []uint32{1, 2}}}}.Encode(), flagTail,
			func(p []byte) error { _, err := DecodeInsertReq(p); return err }},
		"delete": {DeleteReq{Dims: 2, Points: []Point{{ID: 1, Coords: []uint32{1, 2}}}}.Encode(), flagTail,
			func(p []byte) error { _, err := DecodeDeleteReq(p); return err }},
		"join": {JoinReq{Dims: 1, A: []JoinItem{{ID: 1, Lo: []uint32{0}, Hi: []uint32{1}}}}.Encode(), flagTail,
			func(p []byte) error { _, err := DecodeJoinReq(p); return err }},
		"batch": {Batch{Kind: KindPoints, Dims: 1, Points: []Point{{ID: 1, Coords: []uint32{1}}}}.Encode(), strict,
			func(p []byte) error { _, err := DecodeBatch(p); return err }},
		"done": {dn.Encode(), doneTail,
			func(p []byte) error { _, err := DecodeDone(p); return err }},
		"stats-kv": {StatsKV{ID: 1, KVs: []KV{{Name: "x", Value: 2}}}.Encode(), strict,
			func(p []byte) error { _, err := DecodeStatsKV(p); return err }},
		"text": {TextMsg{ID: 1, Text: "x"}.Encode(), strict,
			func(p []byte) error { _, err := DecodeTextMsg(p); return err }},
		"error": {ErrorMsg{ID: 1, Code: 1, Msg: "x"}.Encode(), strict,
			func(p []byte) error { _, err := DecodeErrorMsg(p); return err }},
	}
	for name, tc := range payloads {
		for n := 0; n < len(tc.full); n++ {
			err := tc.decode(tc.full[:n])
			if tc.ok(tc.full, n) {
				if err != nil {
					t.Errorf("%s: legal older-minor prefix of %d/%d bytes rejected: %v", name, n, len(tc.full), err)
				}
			} else if err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded without error", name, n, len(tc.full))
			}
		}
	}
}

// TestImplausibleCounts: a claimed record count far beyond the bytes
// present is rejected before allocation.
func TestImplausibleCounts(t *testing.T) {
	// InsertReq claiming 2^31 points with an empty body.
	var e enc
	Header{ID: 1}.encodeTo(&e)
	e.u32(2)       // dims
	e.u32(1 << 31) // point count
	e.u64(7)       // one lonely point id
	e.u32(1)       // x
	e.u32(2)       // y
	if _, err := DecodeInsertReq(e.b); err == nil {
		t.Fatal("implausible insert count accepted")
	}

	// Welcome claiming 1000 dimensions.
	var e2 enc
	e2.b = append(e2.b, Magic...)
	e2.u8(1)
	e2.u8(0)
	e2.u32(1000)
	if _, err := DecodeWelcome(e2.b); err == nil {
		t.Fatal("implausible dimension count accepted")
	}
}

// TestTxOpcodes: the minor-2 additions — transaction opcodes are
// distinct from every prior opcode, CONFLICT has a name, and the
// control messages round-trip through the SimpleReq shape.
func TestTxOpcodes(t *testing.T) {
	ops := map[string]uint8{
		"hello": MsgHello, "welcome": MsgWelcome, "range": MsgRange,
		"nearest": MsgNearest, "join": MsgJoin, "insert": MsgInsert,
		"checkpoint": MsgCheckpoint, "explain": MsgExplain, "stats": MsgStats,
		"cancel": MsgCancel, "delete": MsgDelete, "begin": MsgBegin,
		"commit": MsgCommit, "rollback": MsgRollback, "batch": MsgBatch,
		"done": MsgDone, "text": MsgText, "error": MsgError, "statskv": MsgStatsKV,
		"query": MsgQuery, "schema": MsgSchema, "rows": MsgRows, "trace": MsgTrace,
	}
	seen := map[uint8]string{}
	for name, op := range ops {
		if prev, dup := seen[op]; dup {
			t.Fatalf("opcode collision: %s and %s are both 0x%02x", name, prev, op)
		}
		seen[op] = name
	}
	if CodeString(CodeConflict) != "conflict" {
		t.Fatalf("CodeString(CodeConflict) = %q", CodeString(CodeConflict))
	}
	for _, op := range []uint8{MsgBegin, MsgCommit, MsgRollback} {
		req := SimpleReq{Header: Header{ID: 99, TimeoutMS: 42, Flags: FlagTrace}}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, op, req.Encode()); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != op {
			t.Fatalf("opcode 0x%02x came back as 0x%02x", op, typ)
		}
		got, err := DecodeSimpleReq(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("tx control round trip mismatch: %+v != %+v", got, req)
		}
	}
}

// TestMinorVersionTrailingBytes: decoders ignore unknown trailing
// payload — the wire's minor-version compatibility promise.
func TestMinorVersionTrailingBytes(t *testing.T) {
	rr := RangeReq{Header: Header{ID: 3}, Lo: []uint32{1}, Hi: []uint32{2}}
	extended := append(rr.Encode(), 0xde, 0xad, 0xbe, 0xef)
	got, err := DecodeRangeReq(extended)
	if err != nil {
		t.Fatalf("trailing bytes rejected: %v", err)
	}
	if got.ID != 3 || got.Lo[0] != 1 || got.Hi[0] != 2 {
		t.Fatal("decode with trailing bytes corrupted fields")
	}
}
