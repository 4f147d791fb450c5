package session

import (
	"context"
	"errors"
	"time"

	"probe"
	"probe/internal/obs"
	"probe/internal/wire"
)

// request carries one request's identity and instrumentation through
// its executor goroutine: the phase timestamps behind the wire timing
// breakdown, the span all engine work is attributed to, and the
// outcome for metrics and the structured log. It is owned by the
// single executor goroutine; the engine reads its tracing state
// through TraceFrom.
type request struct {
	id    uint32
	op    string
	flags uint8

	// trace is the request's distributed trace ID (wire header tail,
	// minor 4). Zero means the client did not send one; setHeader mints
	// an ID for traced requests so this front end acts as the trace's
	// front door, and finish mints one lazily for untraced requests
	// that turn out slow or sampled so their log lines and trace-store
	// records are still grep-correlatable.
	trace uint64

	// span is the request's span, a child of the session span; a
	// traced request's engine work — page reads, operator timings, a
	// router's grafted shard subtrees — hangs off this one node.
	span *probe.Trace

	recv    time.Time // frame dequeued by the session loop
	start   time.Time // executor goroutine began (queue phase ends)
	planned time.Time // decode + validation done (zero if rejected there)

	// streamNs accumulates time spent writing result frames, so the
	// exec phase can be reported net of client backpressure even for
	// handlers that stream from inside the engine callback.
	streamNs int64

	qs       probe.QueryStats
	errCode  uint8 // 0 = success; otherwise the wire error code sent
	finished bool  // telemetry recorded (see finish)
}

// ops is the request opcode table: the name in metric names and log
// lines, and the handler.
var ops = map[uint8]struct {
	name string
	run  func(*conn, context.Context, *request, []byte)
}{
	wire.MsgRange:      {"range", (*conn).handleRange},
	wire.MsgNearest:    {"nearest", (*conn).handleNearest},
	wire.MsgJoin:       {"join", (*conn).handleJoin},
	wire.MsgInsert:     {"insert", (*conn).handleInsert},
	wire.MsgCheckpoint: {"checkpoint", (*conn).handleCheckpoint},
	wire.MsgExplain:    {"explain", (*conn).handleExplain},
	wire.MsgStats:      {"stats", (*conn).handleStats},
	wire.MsgDelete:     {"delete", (*conn).handleDelete},
	wire.MsgBegin:      {"begin", (*conn).handleBegin},
	wire.MsgCommit:     {"commit", (*conn).handleCommit},
	wire.MsgRollback:   {"rollback", (*conn).handleRollback},
	wire.MsgQuery:      {"query", (*conn).handleQuery},
}

// opName names a request opcode for metric names and log lines.
func opName(typ uint8) string { return ops[typ].name }

// execute runs one admitted request to completion, sending its Done
// or Error frame, then records its telemetry (histograms, log line).
// It runs in its own goroutine; recv is when the session loop
// dequeued the frame, the anchor of the timing breakdown.
func (c *conn) execute(ctx context.Context, typ uint8, payload []byte, recv time.Time) {
	c.srv.metrics.Int(c.srv.metric("requests")).Add(1)
	rq := &request{
		id:    peekID(payload),
		op:    opName(typ),
		recv:  recv,
		start: time.Now(),
	}
	rq.span = c.root.Child(c.srv.spanPrefix + rq.op)
	c.out = c.out[:0] // whatever a request that lost its connection left behind
	ops[typ].run(c, context.WithValue(ctx, traceKey{}, rq), rq, payload)
	c.finish(rq)
}

// setHeader records the decoded wire header's instrumentation fields:
// the flags byte and the trace ID. A traced request arriving without
// an ID (an old client, or a coordinator that has not minted one) gets
// a fresh ID here — this front end is then the trace's front door — so
// every traced request is grep-able by trace ID end to end.
func (rq *request) setHeader(h wire.Header) {
	rq.flags = h.Flags
	rq.trace = h.Trace
	if rq.traced() && rq.trace == 0 {
		rq.trace = obs.NewTraceID()
	}
}

// markPlanned seals the plan phase: decoding and validation are done,
// the engine call is next.
func (rq *request) markPlanned() { rq.planned = time.Now() }

// traced reports whether the client set FlagTrace on this request.
func (rq *request) traced() bool { return rq.flags&wire.FlagTrace != 0 }

// timings builds the Done timing array (nanoseconds, wire.Timing*
// indices). Exec is derived as the remainder so it stays correct for
// handlers that stream from inside the engine call.
func (rq *request) timings() (t [wire.NumTimings]uint64) {
	total := time.Since(rq.recv)
	queue := rq.start.Sub(rq.recv)
	var plan time.Duration
	if !rq.planned.IsZero() {
		plan = rq.planned.Sub(rq.start)
	}
	stream := time.Duration(rq.streamNs)
	exec := total - queue - plan - stream
	if exec < 0 {
		exec = 0
	}
	t[wire.TimingQueue] = uint64(queue)
	t[wire.TimingPlan] = uint64(plan)
	t[wire.TimingExec] = uint64(exec)
	t[wire.TimingStream] = uint64(stream)
	t[wire.TimingTotal] = uint64(total)
	return t
}

// withTimeout applies a request's timeout_ms to its context.
func withTimeout(ctx context.Context, ms uint32) (context.Context, context.CancelFunc) {
	if ms == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// put appends one response frame to the request's buffer; flush, or
// the terminal frame's, sends it. A message no frame can hold fails the
// request.
func put[M wire.Message](c *conn, rq *request, typ uint8, m M) bool {
	var err error
	if c.out, err = wire.AppendFrame(c.out, typ, m); err != nil {
		c.fail(rq, wire.CodeInternal, err.Error())
	}
	return err == nil
}

// flush writes the buffered frames, the elapsed time accounted to the
// request's stream phase.
func (c *conn) flush(rq *request) error {
	t0 := time.Now()
	err := c.write(c.out)
	c.out = c.out[:0]
	rq.streamNs += int64(time.Since(t0))
	return err
}

// fail ends a request with a typed error frame plus the recorded
// outcome.
func (c *conn) fail(rq *request, code uint8, msg string) {
	rq.errCode = code
	c.finish(rq)
	c.respDone.Store(true)
	// An error text is nowhere near MaxFrame, so the frame always fits.
	c.out, _ = wire.AppendFrame(c.out, wire.MsgError, wire.ErrorMsg{ID: rq.id, Code: code, Msg: msg})
	c.flush(rq)
}

// reject ends a request at validation with the bad-request code.
func (c *conn) reject(rq *request, msg string) {
	c.fail(rq, wire.CodeBadRequest, msg)
}

// failReq ends a request at execution, mapping the error to its typed
// wire code: the engine's own errors first, then the ones the session
// layer raises. context.Cause distinguishes a client cancel from the
// server's drain.
func (c *conn) failReq(ctx context.Context, rq *request, err error) {
	code := c.srv.eng.ErrorCode(err)
	switch {
	case code != 0:
	case errors.Is(err, errReadOnly):
		code = wire.CodeReadOnly
	case errors.Is(err, probe.ErrTxAborted):
		code = wire.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		code = wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		code = wire.CodeCanceled
		if context.Cause(ctx) == errDraining {
			code = wire.CodeShuttingDown
		}
	default:
		code = wire.CodeInternal
	}
	c.fail(rq, code, err.Error())
}

// statsArray flattens QueryStats into the Done stats array (see the
// wire.Stat* indices).
func statsArray(qs probe.QueryStats) (a [wire.NumStats]uint64) {
	a[wire.StatDataPages] = uint64(qs.DataPages)
	a[wire.StatSeeks] = uint64(qs.Seeks)
	a[wire.StatElements] = uint64(qs.Elements)
	a[wire.StatResults] = uint64(qs.Results)
	a[wire.StatLeftItems] = uint64(qs.LeftItems)
	a[wire.StatRightItems] = uint64(qs.RightItems)
	a[wire.StatRawPairs] = uint64(qs.RawPairs)
	a[wire.StatDistinctPairs] = uint64(qs.DistinctPairs)
	a[wire.StatPoolGets] = qs.PoolGets
	a[wire.StatPoolHits] = qs.PoolHits
	a[wire.StatPoolMisses] = qs.PoolMisses
	a[wire.StatPhysReads] = qs.PhysReads
	a[wire.StatPhysWrites] = qs.PhysWrites
	a[wire.StatWALAppends] = qs.WALAppends
	a[wire.StatWALSyncs] = qs.WALSyncs
	return a
}

// sendDone ends a successful request. A traced data request first
// gets its span tree as a TRACE frame (trace ID plus the canonical
// binary encoding); EXPLAIN and STATS keep their single body. Then
// every traced request's DONE carries the per-phase timing breakdown.
func (c *conn) sendDone(rq *request, qs probe.QueryStats) {
	rq.qs = qs
	if !rq.traced() {
		// Untraced requests run with no engine span attribution; fold
		// the logical merge counters back into the request span so
		// telemetry (slow-query traces, the span tree folded into the
		// metrics registry) still reports the work performed. Physical
		// attribution (pool-gets, phys-reads) requires FlagTrace.
		rq.span.Add(probe.CounterSeeks, int64(qs.Seeks))
		rq.span.Add(probe.CounterDataPages, int64(qs.DataPages))
		rq.span.Add(probe.CounterElements, int64(qs.Elements))
		rq.span.Add(probe.CounterResults, int64(qs.Results))
	}
	rq.span.End()
	c.respDone.Store(true)
	if rq.traced() && rq.op != "explain" && rq.op != "stats" {
		tm := wire.TraceMsg{ID: rq.id, TraceID: rq.trace, Span: obs.EncodeSpan(rq.span)}
		if !put(c, rq, wire.MsgTrace, tm) {
			return
		}
	}
	stats := statsArray(qs)
	dn := wire.Done{ID: rq.id, Stats: stats[:]}
	if rq.traced() {
		t := rq.timings()
		dn.Timings = t[:]
	}
	c.finish(rq)
	if put(c, rq, wire.MsgDone, dn) {
		c.flush(rq)
	}
}

// finish records one executed request's telemetry, once: it seals the
// span, feeds the per-opcode latency and data-page histograms, records
// interesting requests (traced, slow, sampled) into the trace store
// behind /debug/traces, and emits the structured log line — a Warn
// with the rendered span tree for slow queries, or the sampled Info
// line. It runs just before the request's terminal frame is written,
// so a client holding its answer already finds the request in the log
// and the trace store (execute covers a request whose connection died
// first). Every recorded or logged request carries a trace ID: the
// client's when it sent one, a freshly minted one otherwise, so store
// entries and log lines always grep-correlate.
func (c *conn) finish(rq *request) {
	if rq.finished {
		return
	}
	rq.finished = true
	rq.span.End()
	total := time.Since(rq.recv)
	// The paper's metric, which every request has, traced or not; a
	// traced request's pool gets stay in its trace.
	pages := int64(rq.qs.DataPages)
	s := c.srv
	s.metrics.Histogram(s.metric("latency." + rq.op)).Observe(int64(total))
	s.metrics.Histogram(s.metric("pages." + rq.op)).Observe(pages)

	cfg := &s.cfg
	status := "ok"
	if rq.errCode != 0 {
		status = wire.CodeString(rq.errCode)
	}
	seq := s.reqSeq.Add(1)
	slow := cfg.SlowQuery < 0 || (cfg.SlowQuery > 0 && total >= cfg.SlowQuery)
	sampled := cfg.LogEvery > 0 && seq%uint64(cfg.LogEvery) == 0
	if rq.traced() || slow || sampled {
		if rq.trace == 0 {
			rq.trace = obs.NewTraceID()
		}
		kind := obs.TraceKindSampled
		switch {
		case slow:
			kind = obs.TraceKindSlow
		case rq.traced():
			kind = obs.TraceKindTraced
		}
		var root *probe.Trace
		if rq.traced() {
			root = rq.span
		}
		s.traces.Add(obs.TraceRecord{
			TraceID: rq.trace, Op: rq.op, Start: rq.recv, Dur: total,
			Status: status, Kind: kind, Root: root,
		})
	}

	if cfg.Logger == nil {
		return
	}
	args := []any{
		"op", rq.op,
		"id", rq.id,
		"remote", c.nc.RemoteAddr().String(),
		"dur", total,
		"results", rq.qs.Results,
		"pages", pages,
		"status", status,
	}
	if rq.trace != 0 {
		args = append(args, "trace_id", obs.TraceIDString(rq.trace))
	}
	if slow {
		cfg.Logger.Warn("slow query", append(args, "trace", rq.span.Render(true))...)
		return
	}
	if sampled {
		cfg.Logger.Info("request", args...)
	}
}
