package session

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"probe"
	"probe/client"
	"probe/internal/wire"
	"probe/internal/zorder"
)

// scanEngine answers RANGE with n synthetic points and nothing else
// (any other engine call is a nil dereference). With a gate it stops
// before point number hold until the gate closes, the way an engine
// waits on a page read in the middle of a scan.
type scanEngine struct {
	Engine
	n, hold int
	gate    chan struct{}
}

func (e *scanEngine) Grid() zorder.Grid     { return zorder.MustGrid(2, 10) }
func (e *scanEngine) ErrorCode(error) uint8 { return 0 }

func scanPoint(i int) probe.Point {
	return probe.Point{ID: uint64(i), Coords: []uint32{uint32(i % 1024), uint32(i / 1024)}}
}

func (e *scanEngine) Range(ctx context.Context, _ probe.Box, fn func(probe.Point) bool) (probe.QueryStats, error) {
	for i := 0; i < e.n; i++ {
		if e.gate != nil && i == e.hold {
			select {
			case <-e.gate:
			case <-ctx.Done():
				return probe.QueryStats{}, ctx.Err()
			}
		}
		if !fn(scanPoint(i)) {
			break
		}
	}
	return probe.QueryStats{Results: e.n}, nil
}

// countingConn records the calls made on a net.Conn: every Read that
// returned data, and the size of every Write.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	reads  int
	writes []int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.reads++
		c.mu.Unlock()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the calls counted since the last take.
func (c *countingConn) take() (reads int, writes []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	reads, writes = c.reads, c.writes
	c.reads, c.writes = 0, nil
	return reads, writes
}

// loopback serves eng to one TCP connection over real loopback and
// returns both ends wrapped in counters, the server's already in its
// session.
func loopback(t *testing.T, eng Engine, cfg Config) (cli, srv *countingConn) {
	t.Helper()
	cfg.MaxInflight = 4
	s := New(eng, "server", "", cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cli, srv = &countingConn{Conn: nc}, &countingConn{Conn: sc}
	done := make(chan struct{})
	go func() { defer close(done); s.ServeConn(srv) }()
	t.Cleanup(func() { cli.Close(); <-done })
	return cli, srv
}

var fullLo, fullHi = []uint32{0, 0}, []uint32{1023, 1023}

// frameSize is the size on the wire of a BATCH frame of n 2-d points.
func frameSize(n int) int { return 5 + 13 + n*16 }

// TestSmallAnswerIsOneWrite: an untraced RANGE answering less than a
// batch costs the connection four calls: the client writes the request
// once, the server reads it once and writes BATCH and DONE together,
// the client reads them once.
func TestSmallAnswerIsOneWrite(t *testing.T) {
	cli, srv := loopback(t, &scanEngine{n: 70}, Config{})
	c, err := client.NewConn(cli)
	if err != nil {
		t.Fatal(err)
	}
	cli.take()
	srv.take()

	pts, _, err := c.Range(context.Background(), fullLo, fullHi)
	if err != nil || len(pts) != 70 {
		t.Fatalf("range: %d points, %v", len(pts), err)
	}
	cr, cw := cli.take()
	sr, sw := srv.take()
	if len(cw) != 1 || sr != 1 {
		t.Errorf("request: %d client writes, %d server reads, want 1 and 1", len(cw), sr)
	}
	if len(sw) != 1 {
		t.Errorf("answer: server writes %v, want one", sw)
	}
	if cr > 2 {
		t.Errorf("answer: %d client reads, want at most a bufio refill beyond 1", cr)
	}
}

// TestFullBatchesFlush: the answer streams. The engine stalls after
// every full batch until the client has received that batch, so a
// server that sat on a full batch would deadlock here; and what it
// writes is one BATCH per write, the partial last batch riding with
// DONE.
func TestFullBatchesFlush(t *testing.T) {
	const batch, n = 16, 3*16 + 8
	eng := &scanEngine{n: n, hold: batch, gate: make(chan struct{})}
	cli, srv := loopback(t, eng, Config{BatchSize: batch})
	c, err := client.NewConn(cli)
	if err != nil {
		t.Fatal(err)
	}
	srv.take()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := 0
	_, err = c.RangeFunc(ctx, fullLo, fullHi, func(p probe.Point) bool {
		if got++; got == batch {
			close(eng.gate) // the first full batch arrived while the scan was held
		}
		return true
	})
	if err != nil || got != n {
		t.Fatalf("range: %d points, %v", got, err)
	}
	_, sw := srv.take()
	if len(sw) != 4 || sw[0] != frameSize(batch) || sw[1] != sw[0] || sw[2] != sw[0] || sw[3] <= frameSize(8) {
		t.Fatalf("server writes %v, want three of %d bytes and the partial batch with DONE", sw, frameSize(batch))
	}
}

// TestLoopErrorBypassesBuffer: the session loop's own frames never wait
// behind a streaming request. The first request is held with a partial
// batch in the buffer; the error that rejects a pipelined second request
// must reach the client then, not when the first one flushes.
func TestLoopErrorBypassesBuffer(t *testing.T) {
	eng := &scanEngine{n: 10, hold: 5, gate: make(chan struct{})}
	cli, _ := loopback(t, eng, Config{})
	br := bufio.NewReader(cli)
	hello := wire.Hello{Major: wire.VersionMajor, Minor: wire.VersionMinor}
	if err := wire.WriteFrame(cli, wire.MsgHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(br); err != nil || typ != wire.MsgWelcome {
		t.Fatalf("handshake: 0x%02x, %v", typ, err)
	}
	for id := uint32(1); id <= 2; id++ {
		req := wire.RangeReq{Header: wire.Header{ID: id}, Lo: fullLo, Hi: fullHi}
		if err := wire.WriteFrame(cli, wire.MsgRange, req.Encode()); err != nil {
			t.Fatal(err)
		}
	}

	cli.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, p, err := wire.ReadFrame(br)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("while request 1 is held: frame 0x%02x, %v; want the loop's error", typ, err)
	}
	if em, err := wire.DecodeErrorMsg(p); err != nil || em.ID != 2 || em.Code != wire.CodeBadRequest {
		t.Fatalf("loop error: %+v, %v", em, err)
	}

	close(eng.gate)
	typ, p, err = wire.ReadFrame(br)
	if b, derr := wire.DecodeBatch(p); err != nil || typ != wire.MsgBatch || derr != nil || len(b.Points) != 10 {
		t.Fatalf("request 1 after the gate: frame 0x%02x, %d points, %v %v", typ, len(b.Points), err, derr)
	}
	if typ, _, err = wire.ReadFrame(br); err != nil || typ != wire.MsgDone {
		t.Fatalf("request 1: frame 0x%02x, %v; want DONE", typ, err)
	}
}
