package session

import (
	"context"
	"errors"
	"fmt"

	"probe"
	"probe/internal/wire"
)

// Every handler has the same shape: decode, record the header,
// validate against the engine's grid (reject), seal the plan phase,
// call the engine, stream the answer, send DONE. Validation happens
// here, arity and grid bounds alike, so that a malformed request gets
// the same bad-request answer from every engine.

// rangeReq decodes a RANGE-shaped request (RANGE, EXPLAIN) and
// validates its box against the engine's grid, reporting false after
// rejecting a malformed one.
func (c *conn) rangeReq(rq *request, payload []byte) (wire.RangeReq, probe.Box, bool) {
	req, err := wire.DecodeRangeReq(payload)
	if err != nil {
		c.reject(rq, err.Error())
		return req, probe.Box{}, false
	}
	rq.setHeader(req.Header)
	box, err := c.boxOf("box", req.Lo, req.Hi)
	if err != nil {
		c.reject(rq, err.Error())
	}
	return req, box, err == nil
}

// boxOf validates a shipped box (what names it in the error) against
// the engine's grid: well-formed, of the grid's arity, both corners
// inside the grid.
func (c *conn) boxOf(what string, lo, hi []uint32) (probe.Box, error) {
	g := c.srv.eng.Grid()
	if len(lo) != g.Dims() {
		return probe.Box{}, fmt.Errorf("%s has %d dimensions, database has %d", what, len(lo), g.Dims())
	}
	box, err := probe.NewBox(lo, hi)
	if err != nil {
		return probe.Box{}, err
	}
	// Lo <= Hi per dimension, so Hi inside the grid puts Lo inside too.
	if !g.Valid(box.Hi) {
		return probe.Box{}, fmt.Errorf("%s %v reaches outside the grid", what, box)
	}
	return box, nil
}

// checkPoints validates a point batch's arity and grid bounds.
func (c *conn) checkPoints(dims uint32, pts []probe.Point) error {
	g := c.srv.eng.Grid()
	if int(dims) != g.Dims() {
		return fmt.Errorf("points have %d dimensions, database has %d", dims, g.Dims())
	}
	for _, p := range pts {
		if !g.Valid(p.Coords) {
			return fmt.Errorf("point %d %v is outside the grid", p.ID, p.Coords)
		}
	}
	return nil
}

// stream writes one request's result records into the connection's
// buffer as the engine produces them, in BATCH or ROWS frames of
// BatchSize records: a handler appends each record behind buf() and
// reports it with added, which closes and flushes a full frame, and
// finish ends the request.
type stream struct {
	c     *conn
	rq    *request
	begin func([]byte) ([]byte, wire.Records) // opens a frame
	start int                                 // where the open frame begins in c.out; -1 = none open
	open  wire.Records
	n     int   // records in the open frame
	err   error // the answer cannot be encoded
	gone  bool  // the connection failed a write; nothing more to say
}

func (c *conn) stream(rq *request, begin func([]byte) ([]byte, wire.Records)) *stream {
	return &stream{c: c, rq: rq, begin: begin, start: -1}
}

// buf returns the buffer to append the next record to, opening a frame
// for it if none is open.
func (s *stream) buf() []byte {
	if s.start < 0 {
		s.start, s.n = len(s.c.out), 0
		s.c.out, s.open = s.begin(s.c.out)
	}
	return s.c.out
}

// added counts the record just appended and reports whether the engine
// should go on. An engine whose answer is already buffered may not look
// at ctx again; a cancel still stops the stream within a batch.
func (s *stream) added(ctx context.Context) bool {
	if s.n++; s.n < s.c.srv.cfg.BatchSize {
		return true
	}
	if s.closeFrame(); s.err == nil {
		s.gone = s.c.flush(s.rq) != nil
	}
	return s.err == nil && !s.gone && ctx.Err() == nil
}

// closeFrame closes the open frame, if any; one too large for the
// protocol is cut from the buffer and fails the stream.
func (s *stream) closeFrame() {
	if s.start >= 0 {
		s.c.out, s.err = s.open.End(s.c.out, s.n)
		s.start = -1
	}
}

// finish ends the request after the engine call returned qs and err:
// the partial last frame and DONE, or the typed error without it.
func (s *stream) finish(ctx context.Context, qs probe.QueryStats, err error) {
	if s.gone {
		return
	}
	if err == nil {
		err = s.err
	}
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		s.closeFrame()
		err = s.err
	}
	if err != nil {
		if s.start >= 0 {
			s.c.out = s.c.out[:s.start]
		}
		s.c.failReq(ctx, s.rq, err)
		return
	}
	s.c.sendDone(s.rq, qs)
}

func (c *conn) handleRange(ctx context.Context, rq *request, payload []byte) {
	req, box, ok := c.rangeReq(rq, payload)
	if !ok {
		return
	}
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()
	rq.markPlanned()

	eng, err := c.dataEngine()
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	st := c.batches(rq, wire.KindPoints, len(req.Lo))
	qs, err := eng.Range(ctx, box, func(p probe.Point) bool {
		c.out = wire.AppendPoint(st.buf(), p)
		return st.added(ctx)
	})
	st.finish(ctx, qs, err)
}

// batches streams BATCH frames of one kind.
func (c *conn) batches(rq *request, kind uint8, dims int) *stream {
	return c.stream(rq, func(b []byte) ([]byte, wire.Records) {
		return wire.BeginBatch(b, rq.id, kind, uint32(dims))
	})
}

func (c *conn) handleNearest(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeNearestReq(payload)
	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	if g := c.srv.eng.Grid(); len(req.Q) != g.Dims() {
		c.reject(rq, fmt.Sprintf("query point has %d dimensions, database has %d", len(req.Q), g.Dims()))
		return
	} else if !g.Valid(req.Q) {
		c.reject(rq, fmt.Sprintf("query point %v is outside the grid", req.Q))
		return
	}
	metric := probe.Metric(req.Metric) // the wire byte is the Metric's value
	if metric != probe.Chebyshev && metric != probe.Euclidean {
		c.reject(rq, fmt.Sprintf("unknown metric %d", req.Metric))
		return
	}
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()
	rq.markPlanned()

	eng, err := c.dataEngine()
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	nbs, qs, err := eng.Nearest(ctx, req.Q, int(req.M), metric)
	st := c.batches(rq, wire.KindNeighbors, len(req.Q))
	for _, n := range nbs {
		c.out = wire.AppendNeighbor(st.buf(), n.Point, n.Dist)
		if !st.added(ctx) {
			break
		}
	}
	st.finish(ctx, qs, err)
}

// relationOf validates one shipped join relation against the grid.
func (c *conn) relationOf(items []wire.JoinItem) ([]BoxItem, error) {
	out := make([]BoxItem, len(items))
	for i, it := range items {
		box, err := c.boxOf(fmt.Sprintf("join item %d", it.ID), it.Lo, it.Hi)
		if err != nil {
			return nil, err
		}
		out[i] = BoxItem{ID: it.ID, Box: box}
	}
	return out, nil
}

func (c *conn) handleJoin(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeJoinReq(payload)
	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	a, err := c.relationOf(req.A)
	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	b, err := c.relationOf(req.B)
	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()
	rq.markPlanned()

	pairs, qs, err := c.srv.eng.Join(ctx, a, b)
	st := c.batches(rq, wire.KindPairs, 0)
	for _, p := range pairs {
		c.out = wire.AppendPair(st.buf(), p.A, p.B)
		if !st.added(ctx) {
			break
		}
	}
	st.finish(ctx, qs, err)
}

// handleInsert applies a point batch. Inserts run to completion once
// started: a half-applied batch is worse than a late cancel, so only
// the pre-flight context check honors cancellation. Inside a
// transaction the batch only buffers until COMMIT.
func (c *conn) handleInsert(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeInsertReq(payload)
	c.mutate(ctx, rq, req, err, func(eng Engine, ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
		qs, err := eng.Insert(ctx, pts)
		qs.Results = len(pts)
		return qs, err
	})
}

// handleDelete removes a batch of points (minor 2). Points already
// absent are not an error; DONE's StatResults counts those actually
// removed. Inside a transaction the deletions buffer into the
// write-set against the transaction's own view.
func (c *conn) handleDelete(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeDeleteReq(payload)
	c.mutate(ctx, rq, req, err, Engine.Delete)
}

// mutate is the shared body of INSERT and DELETE, whose requests have
// one shape.
func (c *conn) mutate(ctx context.Context, rq *request, req wire.InsertReq, err error,
	apply func(Engine, context.Context, []probe.Point) (probe.QueryStats, error)) {

	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	if err := c.checkPoints(req.Dims, req.Points); err != nil {
		c.reject(rq, err.Error())
		return
	}
	if err := ctx.Err(); err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	rq.markPlanned()
	eng, err := c.dataEngine()
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	qs, err := apply(eng, ctx, req.Points)
	c.answer(ctx, rq, qs, err)
}

// answer ends a request whose whole answer is its DONE frame.
func (c *conn) answer(ctx context.Context, rq *request, qs probe.QueryStats, err error) {
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	c.sendDone(rq, qs)
}

// simple decodes the body-less requests (CHECKPOINT, STATS, BEGIN,
// COMMIT, ROLLBACK), reporting false after rejecting a malformed one.
func (c *conn) simple(rq *request, payload []byte) bool {
	req, err := wire.DecodeSimpleReq(payload)
	if err != nil {
		c.reject(rq, err.Error())
		return false
	}
	rq.setHeader(req.Header)
	return true
}

// handleBegin opens the session's transaction. The transaction lives
// on the server's base context, not this request's, so it survives
// until COMMIT/ROLLBACK, disconnect, idle timeout, or the end of the
// drain grace window.
func (c *conn) handleBegin(ctx context.Context, rq *request, payload []byte) {
	if !c.simple(rq, payload) {
		return
	}
	if c.hasTx() {
		c.reject(rq, "a transaction is already open on this connection")
		return
	}
	rq.markPlanned()
	tx, err := c.srv.eng.Begin(c.srv.baseCtx)
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	c.setTx(tx)
	c.sendDone(rq, probe.QueryStats{})
}

// handleCommit commits the session's transaction. A lost
// first-committer-wins validation answers with the typed CONFLICT
// error; either way the transaction is over.
func (c *conn) handleCommit(ctx context.Context, rq *request, payload []byte) {
	if !c.simple(rq, payload) {
		return
	}
	tx := c.takeTx(false)
	if tx == nil {
		if c.ackAborted() {
			c.failReq(ctx, rq, probe.ErrTxAborted)
		} else {
			c.reject(rq, "no transaction is open on this connection")
		}
		return
	}
	rq.markPlanned()
	qs, err := tx.Commit()
	c.srv.txEnded()
	c.answer(ctx, rq, qs, err)
}

// handleRollback discards the session's transaction.
func (c *conn) handleRollback(ctx context.Context, rq *request, payload []byte) {
	if !c.simple(rq, payload) {
		return
	}
	tx := c.takeTx(false)
	if tx == nil && !c.ackAborted() {
		c.reject(rq, "no transaction is open on this connection")
		return
	}
	rq.markPlanned()
	// With no transaction but the aborted latch set, the server already
	// rolled it back (idle timeout); the client's ROLLBACK lands on the
	// state it asked for, so acknowledge rather than error.
	if tx != nil {
		tx.Rollback()
		c.srv.txEnded()
	}
	c.sendDone(rq, probe.QueryStats{})
}

// handleQuery runs one spatial SQL statement (minor 3). Outside a
// transaction the statement runs on the engine's newest committed
// state; inside BEGIN…COMMIT it runs on the transaction's view — its
// snapshot plus its own buffered writes. SELECT answers with one
// SCHEMA frame, ROWS batches as the plan produces them, and DONE;
// EXPLAIN answers TEXT then DONE. Parse and plan failures come back as
// the typed PARSE/PLAN error codes, and a mid-stream cancel stops a
// streamable scan promptly.
func (c *conn) handleQuery(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	ctx, stop := withTimeout(ctx, req.TimeoutMS)
	defer stop()

	eng, err := c.dataEngine()
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	stmt, err := eng.Prepare(req.Text)
	if err != nil {
		var qe *probe.QueryError
		if !errors.As(err, &qe) {
			c.failReq(ctx, rq, err)
		} else if qe.Kind == probe.QueryPlanError {
			c.fail(rq, wire.CodePlan, err.Error())
		} else {
			c.fail(rq, wire.CodeParse, err.Error())
		}
		return
	}
	rq.markPlanned()

	if stmt.IsExplain() {
		text, err := stmt.ExplainText(ctx)
		if err != nil {
			c.failReq(ctx, rq, err)
			return
		}
		if put(c, rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: text}) {
			c.sendDone(rq, probe.QueryStats{})
		}
		return
	}

	cols := stmt.Columns()
	types := make([]uint8, len(cols))
	for i, col := range cols {
		types[i] = uint8(col.Type)
	}
	if !put(c, rq, wire.MsgSchema, wire.SchemaMsg{ID: req.ID, Cols: cols}) {
		return
	}
	st := c.stream(rq, func(b []byte) ([]byte, wire.Records) { return wire.BeginRows(b, req.ID, types) })
	qs, err := stmt.Run(ctx, func(row probe.QueryRow) bool {
		if c.out, st.err = wire.AppendRow(st.buf(), types, row); st.err != nil {
			return false
		}
		return st.added(ctx)
	})
	st.finish(ctx, qs, err)
}

func (c *conn) handleCheckpoint(ctx context.Context, rq *request, payload []byte) {
	if !c.simple(rq, payload) {
		return
	}
	rq.markPlanned()
	qs, err := c.srv.eng.Checkpoint(ctx)
	c.answer(ctx, rq, qs, err)
}

func (c *conn) handleExplain(ctx context.Context, rq *request, payload []byte) {
	req, box, ok := c.rangeReq(rq, payload)
	if !ok {
		return
	}
	rq.markPlanned()
	plan, err := c.srv.eng.Explain(ctx, box)
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	if put(c, rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: plan}) {
		c.sendDone(rq, probe.QueryStats{})
	}
}

// handleStats snapshots the engine's registries into the structured
// STATSKV response: every metric flattened to a named int64
// (histograms as .count/.p50/.p95/.p99/.max) under its section's
// prefix.
func (c *conn) handleStats(ctx context.Context, rq *request, payload []byte) {
	if !c.simple(rq, payload) {
		return
	}
	rq.markPlanned()
	secs := c.srv.eng.Stats()
	if put(c, rq, wire.MsgStatsKV, wire.StatsKV{ID: rq.id, KVs: statsKVs(secs)}) {
		c.sendDone(rq, probe.QueryStats{})
	}
}
