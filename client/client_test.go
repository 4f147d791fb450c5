package client

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"probe"
	"probe/internal/wire"
)

// peerConn returns a Conn whose peer, on the other end of a net.Pipe,
// welcomes it and then answers every request frame with whatever answer
// appends to out, written with one Write. The peer reads into and
// writes from buffers it reuses, as a server does.
func peerConn(t *testing.T, answer func(out []byte, typ uint8, id uint32) []byte) *Conn {
	t.Helper()
	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		var in, out []byte
		if typ, _, err := wire.ReadFrameInto(srv, &in); err != nil || typ != wire.MsgHello {
			t.Errorf("peer: handshake: typ=0x%02x err=%v", typ, err)
			return
		}
		out, _ = wire.AppendFrame(out, wire.MsgWelcome,
			wire.Welcome{Major: wire.VersionMajor, Minor: wire.VersionMinor, Bits: []uint32{10, 10}})
		for {
			if _, err := srv.Write(out); err != nil {
				return
			}
			typ, p, err := wire.ReadFrameInto(srv, &in)
			if err != nil {
				return // the client closed
			}
			out = answer(out[:0], typ, binary.LittleEndian.Uint32(p))
		}
	}()
	c, err := NewConn(cli)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTimeoutMS: the wire timeout is the context's remaining time in
// milliseconds, 0 only without a deadline, and saturates instead of
// wrapping: a deadline 60 days out used to reach the server as about
// ten days' worth of milliseconds modulo 2^32.
func TestTimeoutMS(t *testing.T) {
	in := func(d time.Duration) context.Context {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(d))
		t.Cleanup(cancel)
		return ctx
	}
	for _, tc := range []struct {
		name     string
		ctx      context.Context
		min, max uint32
	}{
		{"nil context", nil, 0, 0},
		{"no deadline", context.Background(), 0, 0},
		{"past deadline", in(-time.Hour), 1, 1},
		{"one minute", in(time.Minute), 59_000, 60_000},
		{"60 days", in(60 * 24 * time.Hour), math.MaxUint32, math.MaxUint32},
	} {
		if got := timeoutMS(tc.ctx); got < tc.min || got > tc.max {
			t.Errorf("%s: timeout_ms %d, want %d..%d", tc.name, got, tc.min, tc.max)
		}
	}
}

// The results the scripted peer sends for request id, all derived from
// the id so that two requests never put the same bytes at one offset
// of a frame.
func peerPoint(id uint32, j int) probe.Point {
	return probe.Point{ID: uint64(id)*1000 + uint64(j), Coords: []uint32{id, uint32(j)}}
}

func peerRow(id uint32, j int) []wire.RowValue {
	return []wire.RowValue{uint64(id)*1000 + uint64(j), fmt.Sprintf("row %d of request %d", j, id)}
}

// TestResultsOutliveBufferReuse is the ownership contract of the
// package doc: everything RangeFunc, Nearest and QueryFunc deliver is
// still intact after the callback has returned, later batches of the
// same answer have been decoded, and two further requests have reused
// the connection's frame buffers. Router.Range's per-shard readers keep
// points exactly like this.
func TestResultsOutliveBufferReuse(t *testing.T) {
	const perBatch, batches = 5, 2
	types := []uint8{wire.ColID, wire.ColString}
	c := peerConn(t, func(out []byte, typ uint8, id uint32) []byte {
		for b := 0; b < batches; b++ {
			var open wire.Records
			switch typ {
			case wire.MsgRange:
				out, open = wire.BeginBatch(out, id, wire.KindPoints, 2)
			case wire.MsgNearest:
				out, open = wire.BeginBatch(out, id, wire.KindNeighbors, 2)
			case wire.MsgQuery:
				out, open = wire.BeginRows(out, id, types)
			}
			for j := b * perBatch; j < (b+1)*perBatch; j++ {
				switch typ {
				case wire.MsgRange:
					out = wire.AppendPoint(out, peerPoint(id, j))
				case wire.MsgNearest:
					out = wire.AppendNeighbor(out, peerPoint(id, j), float64(j)/2)
				case wire.MsgQuery:
					out, _ = wire.AppendRow(out, types, peerRow(id, j))
				}
			}
			out, _ = open.End(out, perBatch)
		}
		out, _ = wire.AppendFrame(out, wire.MsgDone, wire.Done{ID: id, Stats: make([]uint64, wire.NumStats)})
		return out
	})

	ctx := context.Background()
	lo, hi := []uint32{0, 0}, []uint32{1023, 1023}
	var pts []probe.Point
	if _, err := c.RangeFunc(ctx, lo, hi, func(p probe.Point) bool { pts = append(pts, p); return true }); err != nil {
		t.Fatal(err)
	}
	nbs, _, err := c.Nearest(ctx, lo, batches*perBatch, probe.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	var rows []probe.QueryRow
	if _, err := c.QueryFunc(ctx, "SELECT id, label FROM points", nil, func(r probe.QueryRow) bool { rows = append(rows, r); return true }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, _, err := c.Range(ctx, lo, hi); err != nil || len(got) != batches*perBatch {
			t.Fatalf("further request %d: %d points, %v", i, len(got), err)
		}
	}

	if len(pts) != batches*perBatch || len(nbs) != len(pts) || len(rows) != len(pts) {
		t.Fatalf("delivered %d points, %d neighbours, %d rows, want %d each", len(pts), len(nbs), len(rows), batches*perBatch)
	}
	for j := range pts {
		if want := peerPoint(1, j); !reflect.DeepEqual(pts[j], want) {
			t.Errorf("point %d is %v after the connection moved on, was delivered as %v", j, pts[j], want)
		}
		if want := (probe.Neighbor{Point: peerPoint(2, j), Dist: float64(j) / 2}); !reflect.DeepEqual(nbs[j], want) {
			t.Errorf("neighbour %d is %v after the connection moved on, was delivered as %v", j, nbs[j], want)
		}
		if want := probe.QueryRow(peerRow(3, j)); !reflect.DeepEqual(rows[j], want) {
			t.Errorf("row %d is %v after the connection moved on, was delivered as %v", j, rows[j], want)
		}
	}
}
