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

// pointsOf validates a point batch's arity and grid bounds and
// converts it.
func (c *conn) pointsOf(dims uint32, pts []wire.Point) ([]probe.Point, error) {
	g := c.srv.eng.Grid()
	if int(dims) != g.Dims() {
		return nil, fmt.Errorf("points have %d dimensions, database has %d", dims, g.Dims())
	}
	out := make([]probe.Point, len(pts))
	for i, p := range pts {
		if !g.Valid(p.Coords) {
			return nil, fmt.Errorf("point %d %v is outside the grid", p.ID, p.Coords)
		}
		out[i] = probe.Point{ID: p.ID, Coords: p.Coords}
	}
	return out, nil
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
	dims := uint32(len(req.Lo))
	batch := make([]wire.Point, 0, c.srv.cfg.BatchSize)
	var writeErr error
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		writeErr = c.sendTimed(rq, wire.MsgBatch, wire.Batch{
			ID: req.ID, Kind: wire.KindPoints, Dims: dims, Points: batch,
		}.Encode())
		batch = batch[:0]
		return writeErr == nil
	}
	qs, err := eng.Range(ctx, box, func(p probe.Point) bool {
		batch = append(batch, wire.Point{ID: p.ID, Coords: p.Coords})
		if len(batch) == cap(batch) {
			// An engine whose answer is already buffered may not look at
			// ctx again; a cancel still stops the stream within a batch.
			return flush() && ctx.Err() == nil
		}
		return true
	})
	if writeErr != nil {
		return // connection is gone; nothing more to say
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	if !flush() {
		return
	}
	c.sendDone(rq, qs)
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
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	out := make([]wire.Neighbor, len(nbs))
	for i, n := range nbs {
		out[i] = wire.Neighbor{Point: wire.Point{ID: n.Point.ID, Coords: n.Point.Coords}, Dist: n.Dist}
	}
	dims := uint32(len(req.Q))
	if c.sendBatches(rq, len(out), func(lo, hi int) wire.Batch {
		return wire.Batch{ID: req.ID, Kind: wire.KindNeighbors, Dims: dims, Neighbors: out[lo:hi]}
	}) {
		c.sendDone(rq, qs)
	}
}

// sendBatches streams a materialized answer of n results, BatchSize
// per BATCH frame; false means the connection is gone.
func (c *conn) sendBatches(rq *request, n int, batch func(lo, hi int) wire.Batch) bool {
	for lo := 0; lo < n; lo += c.srv.cfg.BatchSize {
		hi := min(lo+c.srv.cfg.BatchSize, n)
		if c.sendTimed(rq, wire.MsgBatch, batch(lo, hi).Encode()) != nil {
			return false
		}
	}
	return true
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

	pairs, qs, err := c.srv.eng.Join(ctx, a, b, int(req.Workers))
	if err != nil {
		c.failReq(ctx, rq, err)
		return
	}
	out := make([][2]uint64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]uint64{p.A, p.B}
	}
	if c.sendBatches(rq, len(out), func(lo, hi int) wire.Batch {
		return wire.Batch{ID: req.ID, Kind: wire.KindPairs, Pairs: out[lo:hi]}
	}) {
		c.sendDone(rq, qs)
	}
}

// handleInsert applies a point batch. Inserts run to completion once
// started: a half-applied batch is worse than a late cancel, so only
// the pre-flight context check honors cancellation. Inside a
// transaction the batch only buffers until COMMIT.
func (c *conn) handleInsert(ctx context.Context, rq *request, payload []byte) {
	req, err := wire.DecodeInsertReq(payload)
	c.write(ctx, rq, req, err, func(eng Engine, ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
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
	c.write(ctx, rq, wire.InsertReq(req), err, Engine.Delete)
}

// write is the shared body of INSERT and DELETE, whose requests have
// one shape.
func (c *conn) write(ctx context.Context, rq *request, req wire.InsertReq, err error,
	apply func(Engine, context.Context, []probe.Point) (probe.QueryStats, error)) {

	if err != nil {
		c.reject(rq, err.Error())
		return
	}
	rq.setHeader(req.Header)
	pts, err := c.pointsOf(req.Dims, req.Points)
	if err != nil {
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
	qs, err := apply(eng, ctx, pts)
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
		if c.sendTimed(rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: text}.Encode()) != nil {
			return
		}
		c.sendDone(rq, probe.QueryStats{})
		return
	}

	cols := stmt.Columns()
	wcols := make([]wire.SchemaCol, len(cols))
	types := make([]uint8, len(cols))
	for i, col := range cols {
		wcols[i] = wire.SchemaCol{Name: col.Name, Type: uint8(col.Type)}
		types[i] = uint8(col.Type)
	}
	if c.sendTimed(rq, wire.MsgSchema, wire.SchemaMsg{ID: req.ID, Cols: wcols}.Encode()) != nil {
		return
	}
	var writeErr, encodeErr error
	batch := make([][]wire.RowValue, 0, c.srv.cfg.BatchSize)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		p, err := wire.RowsMsg{ID: req.ID, Types: types, Rows: batch}.Encode()
		if err != nil {
			encodeErr = err
			return false
		}
		if err := c.sendTimed(rq, wire.MsgRows, p); err != nil {
			writeErr = err
			return false
		}
		batch = batch[:0]
		return true
	}
	qs, err := stmt.Run(ctx, func(row probe.QueryRow) bool {
		vals := make([]wire.RowValue, len(row))
		for i, v := range row {
			vals[i] = wire.RowValue(v)
		}
		batch = append(batch, vals)
		if len(batch) == cap(batch) {
			return flush() && ctx.Err() == nil
		}
		return true
	})
	if err == nil {
		err = ctx.Err()
	}
	switch {
	case encodeErr != nil:
		c.failReq(ctx, rq, encodeErr)
		return
	case writeErr != nil:
		return // connection is gone; nothing more to say
	case err != nil:
		c.failReq(ctx, rq, err)
		return
	}
	if !flush() {
		return
	}
	c.sendDone(rq, qs)
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
	if c.sendTimed(rq, wire.MsgText, wire.TextMsg{ID: req.ID, Text: plan}.Encode()) != nil {
		return
	}
	c.sendDone(rq, probe.QueryStats{})
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
	if c.sendTimed(rq, wire.MsgStatsKV, wire.StatsKV{ID: rq.id, KVs: statsKVs(secs)}.Encode()) != nil {
		return
	}
	c.sendDone(rq, probe.QueryStats{})
}
