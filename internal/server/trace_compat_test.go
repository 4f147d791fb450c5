package server

import (
	"math/rand"
	"net"
	"testing"

	"probe/internal/wire"
)

// rawTracedRange handshakes at the given protocol minor, runs one
// traced full-grid range, and returns the frame types seen before
// DONE plus the TEXT body (if any) and the TRACE message (if any).
func rawTracedRange(t *testing.T, addr string, minor uint8) (types []uint8, text string, tm wire.TraceMsg, sawTrace bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := wire.Hello{Major: wire.VersionMajor, Minor: minor}
	if err := wire.WriteFrame(conn, wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgWelcome {
		t.Fatalf("handshake: type 0x%02x err %v", typ, err)
	}
	req := wire.RangeReq{Header: wire.Header{ID: 1, Flags: wire.FlagTrace},
		Lo: []uint32{0, 0}, Hi: []uint32{1023, 1023}}
	if err := wire.WriteFrame(conn, wire.MsgRange, req.Encode()); err != nil {
		t.Fatal(err)
	}
	for {
		typ, payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, typ)
		switch typ {
		case wire.MsgText:
			txt, err := wire.DecodeTextMsg(payload)
			if err != nil {
				t.Fatal(err)
			}
			text = txt.Text
		case wire.MsgTrace:
			tm, err = wire.DecodeTraceMsg(payload)
			if err != nil {
				t.Fatal(err)
			}
			sawTrace = true
		case wire.MsgDone:
			return types, text, tm, sawTrace
		case wire.MsgError:
			t.Fatalf("server answered error: %x", payload)
		}
	}
}

// TestTracedRangeMinor4GetsTraceFrame pins the contract 1.4 set: the
// traced request's answer is a TRACE frame (trace ID plus decodable
// binary span tree) immediately before DONE, and no legacy TEXT.
func TestTracedRangeMinor4GetsTraceFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	_, addr, _ := startServer(t, Config{BatchSize: 64}, randPoints(rng, 500, 0))
	types, text, tm, sawTrace := rawTracedRange(t, addr, wire.VersionMinor)
	if !sawTrace {
		t.Fatalf("minor 4: no TRACE frame before DONE (frames %x)", types)
	}
	if text != "" {
		t.Errorf("minor 4: server also sent the legacy TEXT form:\n%s", text)
	}
	if tm.ID != 1 {
		t.Errorf("TRACE frame id = %d, want 1", tm.ID)
	}
	if tm.TraceID == 0 {
		t.Error("TRACE frame carries no trace ID (front door must mint one)")
	}
	if types[len(types)-2] != wire.MsgTrace {
		t.Errorf("TRACE frame not immediately before DONE: frames %x", types)
	}
}
