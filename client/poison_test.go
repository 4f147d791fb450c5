package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"probe"
	"probe/internal/wire"
)

// fakeShardServer speaks just enough of the wire protocol over one
// net.Pipe end to welcome a client and then sever the connection
// mid-stream: on the first data request it sends one point batch and
// slams the pipe shut, leaving the response unterminated.
func fakeShardServer(t *testing.T, conn net.Conn) {
	t.Helper()
	br := bufio.NewReader(conn)
	typ, _, err := wire.ReadFrame(br)
	if err != nil || typ != wire.MsgHello {
		t.Errorf("fake server: handshake: typ=0x%02x err=%v", typ, err)
		conn.Close()
		return
	}
	w := wire.Welcome{Major: wire.VersionMajor, Minor: wire.VersionMinor, Bits: []uint32{10, 10}}
	if err := wire.WriteFrame(conn, wire.MsgWelcome, w.Encode()); err != nil {
		t.Errorf("fake server: welcome: %v", err)
		conn.Close()
		return
	}
	typ, payload, err := wire.ReadFrame(br)
	if err != nil || typ != wire.MsgRange {
		t.Errorf("fake server: expected RANGE, got typ=0x%02x err=%v", typ, err)
		conn.Close()
		return
	}
	req, err := wire.DecodeRangeReq(payload)
	if err != nil {
		t.Errorf("fake server: decode range: %v", err)
		conn.Close()
		return
	}
	b := wire.Batch{ID: req.ID, Kind: wire.KindPoints, Dims: 2,
		Points: []wire.Point{{ID: 1, Coords: []uint32{3, 4}}}}
	if err := wire.WriteFrame(conn, wire.MsgBatch, b.Encode()); err != nil {
		t.Errorf("fake server: batch: %v", err)
	}
	// Sever mid-stream: the client has a half-consumed response and no
	// terminal DONE/ERROR frame.
	conn.Close()
}

// TestPoisonedConnSeveredMidStream is the regression test for typed
// connection poisoning: a transport failure mid-response must leave
// the Conn permanently failed with an error matching ErrPoisoned —
// never a half-consumed session that silently misroutes the next
// request's frames.
func TestPoisonedConnSeveredMidStream(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	go fakeShardServer(t, srvEnd)

	c, err := NewConn(cliEnd)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer c.Close()

	ctx := context.Background()
	got := 0
	_, err = c.RangeFunc(ctx, []uint32{0, 0}, []uint32{100, 100}, func(p probe.Point) bool {
		got++
		return true
	})
	if err == nil {
		t.Fatal("severed mid-stream range returned nil error")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mid-stream sever returned %v (%T), want ErrPoisoned match", err, err)
	}
	var pe *PoisonedError
	if !errors.As(err, &pe) || pe.Cause == nil {
		t.Fatalf("error %v is not a *PoisonedError with a cause", err)
	}
	if got != 1 {
		t.Fatalf("delivered %d points before the sever, want 1", got)
	}

	// The poisoning is sticky and typed: every later call fails
	// immediately with the same error value, and Broken reports it.
	if c.Broken() == nil {
		t.Fatal("Broken() nil after poisoning")
	}
	_, _, err2 := c.Range(ctx, []uint32{0, 0}, []uint32{1, 1})
	if !errors.Is(err2, ErrPoisoned) {
		t.Fatalf("second call after poison returned %v, want ErrPoisoned match", err2)
	}
	var pe2 *PoisonedError
	if !errors.As(err2, &pe2) || pe2 != pe {
		t.Fatalf("second call returned a different error value (%p vs %p)", pe2, pe)
	}

	// And it fails fast: no network wait.
	t0 := time.Now()
	if _, err := c.Insert(ctx, nil); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("insert after poison: %v", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("poisoned call took %v, want immediate failure", d)
	}
}

// TestWelcomeBelowFloorRefused: a server announcing a minor below
// wire.MinMinor lacks frames the client depends on, so the handshake
// fails instead of opening a session.
func TestWelcomeBelowFloorRefused(t *testing.T) {
	cs, ss := net.Pipe()
	defer ss.Close()
	go func() {
		if _, _, err := wire.ReadFrame(ss); err != nil {
			return
		}
		w := wire.Welcome{Major: wire.VersionMajor, Minor: wire.MinMinor - 1, Bits: []uint32{10, 10}}
		wire.WriteFrame(ss, wire.MsgWelcome, w.Encode())
	}()
	if c, err := NewConn(cs); err == nil {
		c.Close()
		t.Fatalf("NewConn accepted a protocol 1.%d server", wire.MinMinor-1)
	}
}
