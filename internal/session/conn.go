package session

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"probe"
	"probe/internal/wire"
)

// conn is the server side of one connection: a reader goroutine
// feeding frames to the session loop, which executes at most one
// request at a time in its own goroutine while staying responsive to
// CANCEL frames.
type conn struct {
	srv *Server
	nc  net.Conn

	// writeMu serializes writes to nc, each a run of whole frames: the
	// executor goroutine flushes its buffer while the session loop may
	// emit protocol errors.
	writeMu sync.Mutex

	// out collects the in-flight request's response frames. It belongs
	// to the executor goroutine (at most one runs per connection, and
	// the loop starts the next only after the last has signalled done):
	// handlers append frames, and rows inside an open BATCH or ROWS
	// frame, as the engine produces them, and flush puts what has
	// accumulated on the connection with one Write. The flush rule is
	// fixed: after every full batch, and with the terminal frame, so a
	// partial last batch, SCHEMA and TRACE ride with their DONE. The
	// loop's own frames bypass it (sendError), so none ever waits here.
	out []byte

	frames chan frameMsg

	// tx is the session's open transaction, nil outside BEGIN…COMMIT/
	// ROLLBACK. The executor goroutine uses it during a request; the
	// session loop rolls it back on idle timeout or disconnect, which
	// it only does while no request is in flight — txMu guards the
	// pointer itself so those handoffs are race-free.
	// txAborted latches when the server kills the transaction (idle
	// timeout) so later statements fail loudly instead of silently
	// running in auto-commit mode; BEGIN, COMMIT, and ROLLBACK clear
	// it.
	txMu      sync.Mutex
	tx        Tx
	txAborted bool

	// root is the session's span: every request's work is attributed
	// to a child span, so the session trace is the full attributed
	// history of the connection. Folded into the server's metrics
	// registry when the session ends.
	root *probe.Trace

	// respDone flips true when the executor starts writing the
	// in-flight request's final frame. From that instant a conforming
	// client may already have the answer and pipeline its next request
	// ahead of the executor's done signal — the session loop uses this
	// to wait out the bookkeeping gap instead of mis-reading the race
	// as a pipelining violation.
	respDone atomic.Bool
}

type frameMsg struct {
	typ     uint8
	payload []byte
}

// hasTx reports whether the session holds an open transaction.
func (c *conn) hasTx() bool {
	c.txMu.Lock()
	defer c.txMu.Unlock()
	return c.tx != nil
}

// dataEngine returns what a data request (RANGE, NEAREST, INSERT,
// DELETE, QUERY) runs against: the open transaction, else the server's
// engine. After a server-side abort the client has not acknowledged it
// fails with probe.ErrTxAborted.
func (c *conn) dataEngine() (Engine, error) {
	c.txMu.Lock()
	defer c.txMu.Unlock()
	switch {
	case c.tx != nil:
		return c.tx, nil
	case c.txAborted:
		return nil, probe.ErrTxAborted
	}
	return c.srv.eng, nil
}

// setTx installs a freshly begun transaction, clearing any stale
// aborted latch.
func (c *conn) setTx(tx Tx) {
	c.txMu.Lock()
	c.tx = tx
	c.txAborted = false
	c.txMu.Unlock()
	c.srv.txBegan()
}

// ackAborted clears the aborted latch, reporting whether it was set —
// COMMIT and ROLLBACK acknowledge the abort.
func (c *conn) ackAborted() bool {
	c.txMu.Lock()
	defer c.txMu.Unlock()
	was := c.txAborted
	c.txAborted = false
	return was
}

// takeTx detaches the open transaction from the session, nil if none.
// The caller owns ending it (and calling srv.txEnded). aborted latches
// a server-side abort the client has not seen.
func (c *conn) takeTx(aborted bool) Tx {
	c.txMu.Lock()
	defer c.txMu.Unlock()
	tx := c.tx
	c.tx = nil
	if tx != nil && aborted {
		c.txAborted = true
	}
	return tx
}

// write puts whole frames on the connection: one deadline, one Write.
func (c *conn) write(frames []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	_, err := c.nc.Write(frames)
	return err
}

// send writes one frame straight through: the handshake's, and the
// session loop's errors, which must not wait behind a streaming
// request's buffer.
func send[M wire.Message](c *conn, typ uint8, m M) error {
	frame, err := wire.AppendFrame(nil, typ, m)
	if err != nil {
		return err
	}
	return c.write(frame)
}

func (c *conn) sendError(id uint32, code uint8, msg string) {
	send(c, wire.MsgError, wire.ErrorMsg{ID: id, Code: code, Msg: msg})
}

// peekID extracts the request id every request payload leads with, so
// even a request rejected before decoding gets a correctly-addressed
// error frame.
func peekID(payload []byte) uint32 {
	if len(payload) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(payload)
}

// ServeConn runs one session on nc to completion and closes nc. Serve
// calls it for every accepted connection; a caller that already holds
// a connection (a test's net.Pipe) may call it directly.
func (s *Server) ServeConn(nc net.Conn) {
	c := &conn{
		srv:    s,
		nc:     nc,
		frames: make(chan frameMsg, 4), // a CANCEL or two behind the in-flight request, without stalling the reader
		root:   probe.NewTrace("session"),
	}
	defer func() {
		if tx := c.takeTx(false); tx != nil {
			tx.Rollback() // a transaction never outlives its connection
			s.txEnded()
		}
		nc.Close()
		for range c.frames {
			// Drain so the reader goroutine can exit.
		}
		c.root.End()
		s.metrics.AddSpan("session", c.root)
	}()

	// Reader goroutine: frames in, closed on any read error. Each
	// payload is its own allocation: the executor decodes one while the
	// reader is already waiting on the next (a CANCEL).
	go func() {
		defer close(c.frames)
		br := bufio.NewReader(nc)
		for {
			typ, payload, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			c.frames <- frameMsg{typ: typ, payload: payload}
		}
	}()

	if c.handshake() {
		c.loop()
	}
}

// loop is the one-in-flight executor: it admits a request, runs it in
// its own goroutine, and keeps reading frames so CANCEL lands.
func (c *conn) loop() {
	s := c.srv

	// txTimer enforces Config.TxIdleTimeout: it is (re-)armed whenever
	// a request finishes with a transaction open, and fires only while
	// no request is in flight — the executor goroutine owns the
	// transaction during a request, so the loop never ends it mid-use.
	txTimer := time.NewTimer(s.cfg.TxIdleTimeout)
	if !txTimer.Stop() {
		<-txTimer.C
	}
	defer txTimer.Stop()
	armTxTimer := func() {
		if !txTimer.Stop() {
			select {
			case <-txTimer.C:
			default:
			}
		}
		if c.hasTx() {
			txTimer.Reset(s.cfg.TxIdleTimeout)
		}
	}

	var (
		reqDone   chan struct{} // non-nil while a request executes
		cancelReq context.CancelCauseFunc
		inflight  uint32 // id of the executing request
	)
	for {
		select {
		case f, ok := <-c.frames:
			if !ok {
				// Connection gone. Cancel any running request — its
				// results have nowhere to go — and wait it out so the
				// admission slot is released before the session ends.
				if reqDone != nil {
					cancelReq(errClientCancel)
					<-reqDone
					cancelReq(context.Canceled)
				}
				return
			}
			_, isRequest := ops[f.typ]
			switch {
			case f.typ == wire.MsgCancel:
				cm, err := wire.DecodeCancel(f.payload)
				if err != nil {
					c.sendError(0, wire.CodeBadRequest, "malformed cancel")
					continue
				}
				if reqDone != nil && cm.ID == inflight {
					s.metrics.Int(s.metric("cancelled")).Add(1)
					cancelReq(errClientCancel)
				}
			case isRequest:
				recv := time.Now()
				id := peekID(f.payload)
				if reqDone != nil && c.respDone.Load() {
					// The previous request's final frame is already on the
					// wire — only executor bookkeeping separates us from its
					// done signal, and the client was entitled to send this
					// request the moment it read that frame. Wait the signal
					// out rather than mis-typing a conforming client as a
					// pipeliner.
					<-reqDone
					cancelReq(context.Canceled)
					reqDone, cancelReq = nil, nil
					armTxTimer()
				}
				if reqDone != nil {
					c.sendError(id, wire.CodeBadRequest,
						fmt.Sprintf("request %d is still in flight on this connection", inflight))
					continue
				}
				// Drain: reject new work, but a session holding an open
				// transaction may keep going through the grace window so
				// it can finish and COMMIT (or ROLLBACK) cleanly.
				if s.Draining() && !c.hasTx() {
					c.sendError(id, wire.CodeShuttingDown, s.name+" is shutting down")
					continue
				}
				if !s.BeginRequest() {
					c.sendError(id, wire.CodeOverloaded,
						fmt.Sprintf("%s at its in-flight limit (%d); retry later", s.name, s.cfg.MaxInflight))
					continue
				}
				ctx, cancel := context.WithCancelCause(s.baseCtx)
				done := make(chan struct{})
				c.respDone.Store(false)
				reqDone, cancelReq, inflight = done, cancel, id
				typ, payload := f.typ, f.payload
				go func() {
					defer close(done)
					defer s.EndRequest()
					c.execute(ctx, typ, payload, recv)
				}()
			default:
				c.sendError(0, wire.CodeBadRequest,
					fmt.Sprintf("unexpected frame type 0x%02x", f.typ))
			}
		case <-reqDone:
			cancelReq(context.Canceled) // release the context's resources
			reqDone, cancelReq = nil, nil
			armTxTimer()
		case <-txTimer.C:
			if reqDone != nil {
				// A request slipped in; re-check after it finishes.
				armTxTimer()
				continue
			}
			if tx := c.takeTx(true); tx != nil {
				tx.Rollback()
				s.txEnded()
				s.metrics.Int(s.metric("tx_idle_aborts")).Add(1)
			}
		}
	}
}

// handshake expects the client's Hello as the first frame and answers
// Welcome with the grid shape; a major-version mismatch, or a minor
// below wire.MinMinor, gets a typed error and closes the session.
func (c *conn) handshake() bool {
	f, ok := <-c.frames
	if !ok {
		return false
	}
	if f.typ != wire.MsgHello {
		c.sendError(0, wire.CodeBadRequest, "expected HELLO")
		return false
	}
	hello, err := wire.DecodeHello(f.payload)
	if err != nil {
		c.sendError(0, wire.CodeBadRequest, err.Error())
		return false
	}
	if hello.Major != wire.VersionMajor || hello.Minor < wire.MinMinor {
		c.sendError(0, wire.CodeVersion,
			fmt.Sprintf("protocol version %d.%d not supported (%s speaks major %d, minor %d and up)",
				hello.Major, hello.Minor, c.srv.name, wire.VersionMajor, wire.MinMinor))
		return false
	}
	g := c.srv.eng.Grid()
	bits := make([]uint32, g.Dims())
	for i := range bits {
		bits[i] = uint32(g.BitsOf(i))
	}
	return send(c, wire.MsgWelcome, wire.Welcome{
		Major: wire.VersionMajor, Minor: wire.VersionMinor, Bits: bits,
	}) == nil
}
