// Package client is the Go client for probed, the probe network query
// server. One Conn wraps one reused TCP connection speaking the wire
// protocol (docs/server.md); it is safe for concurrent use, with
// calls serialized over the connection in arrival order — open
// several Conns for real concurrency.
//
// Transactions (protocol 1.2) are session state on the connection:
// Conn.Begin opens one, the returned Tx buffers writes server-side
// and reads a pinned snapshot overlaid with them, and Tx.Commit
// either applies everything atomically or fails with ErrTxConflict
// when another committer won first-committer-wins validation — see
// docs/transactions.md.
//
// Cancellation and deadlines ride on context.Context: a context with
// a deadline becomes the request's timeout_ms on the wire, and
// cancelling the context sends a CANCEL frame so the server stops the
// request within about one page read. Server-side failures come back
// as *ServerError values that errors.Is-match the typed sentinels
// (ErrOverloaded, ErrCanceled, ErrDeadline, ErrShuttingDown,
// ErrTxConflict), so a caller can distinguish backpressure from
// cancellation from drain from a lost commit race without parsing
// messages.
//
// Ownership. Every point, neighbour, pair and row a call returns or
// hands to a callback belongs to the caller: it stays valid, and may be
// kept or modified, after the callback has returned and after any
// number of further requests. The Conn reuses only its private frame
// buffers, which nothing it hands out points into. An answer is
// decoded once: the slice Range, Nearest, Join or Query returns is
// the answer's first batch as the wire codec decoded it, in the
// library's types, with any later batch appended to it.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"probe"
	"probe/internal/core"
	"probe/internal/obs"
	"probe/internal/wire"
)

// A note on tracing (SetTrace and friends). While tracing is on, every
// request carries FlagTrace and, when set, the connection's trace ID
// (SetTraceID); after each request LastTiming holds the server's
// per-phase breakdown, and after each traced data request — RANGE,
// NEAREST, JOIN, INSERT, DELETE, and QUERY statements alike — the
// server-side span tree is available rendered (LastTrace) and parsed
// (LastTraceTree), along with the trace ID the server stamped on the
// request (LastTraceID).

// Typed error sentinels for errors.Is. The concrete error is always a
// *ServerError carrying the server's message, except ErrTxAborted,
// which the client raises locally for operations on an ended Tx.
var (
	// ErrOverloaded: admission control rejected the request; the
	// server is at its in-flight limit. Retrying after a backoff is
	// reasonable.
	ErrOverloaded = errors.New("probed: overloaded")
	// ErrCanceled: the request was cancelled (normally by this
	// client's own context).
	ErrCanceled = errors.New("probed: canceled")
	// ErrDeadline: the request's timeout expired server-side.
	ErrDeadline = errors.New("probed: deadline exceeded")
	// ErrShuttingDown: the server is draining and accepts no new
	// requests.
	ErrShuttingDown = errors.New("probed: server shutting down")
	// ErrTxConflict: Commit lost first-committer-wins validation —
	// another transaction (or auto-commit write) committed to a key in
	// this transaction's write-set first. Retry the whole transaction.
	ErrTxConflict = errors.New("probed: transaction conflict")
	// ErrTxAborted: the Tx has already ended (committed, rolled back,
	// or aborted by the server).
	ErrTxAborted = errors.New("probed: transaction has ended")
	// ErrParse: the QUERY statement failed to parse (protocol 1.3).
	ErrParse = errors.New("probed: query parse error")
	// ErrPlan: the QUERY statement parsed but cannot run against the
	// served database (protocol 1.3).
	ErrPlan = errors.New("probed: query plan error")
	// ErrUnavailable: a shard the request needs has no reachable node
	// (protocol 1.4, returned by zrouted).
	ErrUnavailable = errors.New("probed: shard unavailable")
	// ErrReadOnly: a write was sent to a read-only replica (protocol
	// 1.4).
	ErrReadOnly = errors.New("probed: read-only replica")
	// ErrPoisoned: the connection suffered a transport failure
	// mid-protocol and is permanently unusable — the stream position is
	// unknown, so no further request may be written. Every call after
	// the failure returns a *PoisonedError matching this sentinel;
	// callers (connection pools especially) must discard the Conn and
	// dial a fresh one.
	ErrPoisoned = errors.New("probed: connection poisoned")
)

// PoisonedError marks a Conn dead after a mid-stream transport
// failure. Cause is the original I/O or framing error; the same value
// (not a copy) is returned by every subsequent call, so errors.Is
// against ErrPoisoned identifies a dead connection regardless of when
// the caller observes it.
type PoisonedError struct {
	Cause error
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("probed: connection poisoned: %v", e.Cause)
}

// Unwrap exposes the original transport error to errors.Is/As.
func (e *PoisonedError) Unwrap() error { return e.Cause }

// Is matches the ErrPoisoned sentinel.
func (e *PoisonedError) Is(target error) bool { return target == ErrPoisoned }

// ServerError is a typed failure reported by the server.
type ServerError struct {
	Code uint8
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("probed: %s: %s", wire.CodeString(e.Code), e.Msg)
}

// Is matches the sentinel corresponding to the error's wire code, so
// errors.Is(err, client.ErrOverloaded) works on returned errors.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrOverloaded:
		return e.Code == wire.CodeOverloaded
	case ErrCanceled:
		return e.Code == wire.CodeCanceled
	case ErrDeadline:
		return e.Code == wire.CodeDeadline
	case ErrShuttingDown:
		return e.Code == wire.CodeShuttingDown
	case ErrTxConflict:
		return e.Code == wire.CodeConflict
	case ErrParse:
		return e.Code == wire.CodeParse
	case ErrPlan:
		return e.Code == wire.CodePlan
	case ErrUnavailable:
		return e.Code == wire.CodeUnavailable
	case ErrReadOnly:
		return e.Code == wire.CodeReadOnly
	}
	return false
}

// BoxItem is one object of a join relation: an id plus its bounding
// box (ID, Lo, Hi), shipped as it is. The server decomposes it into
// z-elements.
type BoxItem = wire.JoinItem

// Conn is one connection to a probed server. Safe for concurrent use;
// requests serialize on the connection.
type Conn struct {
	mu     sync.Mutex // serializes whole requests
	sendMu sync.Mutex // serializes frame writes (request vs. cancel)

	conn   net.Conn
	br     *bufio.Reader
	nextID uint32
	bits   []uint32
	broken error // sticky transport failure

	// The connection's frame buffers, reused by every request (guarded
	// by mu): the request frame is encoded into wbuf and written with
	// one Write, every response frame is read into rbuf and decoded out
	// of it before the next read, and done is the decoded DONE.
	wbuf, rbuf []byte
	done       wire.Done

	// tx is the connection's open transaction, nil outside
	// BEGIN…COMMIT/ROLLBACK (guarded by mu). The server enforces the
	// same one-transaction-per-connection rule.
	tx *Tx

	// Tracing state (SetTrace / LastTiming / LastTrace), guarded by
	// mu like everything per-request. traceID, when nonzero, is
	// stamped on every traced request's header (protocol 1.4) so a
	// coordinator can propagate one distributed trace ID to its
	// backends; lastTraceID and lastSpan hold the TRACE frame of the
	// most recent traced data request.
	trace       bool
	traceID     uint64
	lastTiming  Timing
	lastTrace   string
	lastTraceID uint64
	lastSpan    *probe.Trace
}

// Timing is the server's per-phase breakdown of the last traced
// request: where its wall-clock went between arriving at the server
// and the terminal frame.
type Timing struct {
	Queue  time.Duration // frame receipt → execution start
	Plan   time.Duration // request decode + validation
	Exec   time.Duration // the query engine call
	Stream time.Duration // writing result batches back
	Total  time.Duration // receipt → terminal frame
}

// Dial connects to a probed server and performs the version
// handshake.
func Dial(addr string) (*Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(conn)
}

// NewConn wraps an established connection — a custom dialer's, a TLS
// channel's, a test pipe's — in a Conn, performing the protocol
// handshake. The Conn takes ownership of conn.
func NewConn(conn net.Conn) (*Conn, error) {
	c := &Conn{conn: conn, br: bufio.NewReader(conn), nextID: 1}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *Conn) handshake() error {
	hello := wire.Hello{Major: wire.VersionMajor, Minor: wire.VersionMinor}
	if err := wire.WriteFrame(c.conn, wire.MsgHello, hello.Encode()); err != nil {
		return err
	}
	typ, payload, err := wire.ReadFrameInto(c.br, &c.rbuf)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgWelcome:
		w, err := wire.DecodeWelcome(payload)
		if err != nil {
			return err
		}
		if w.Minor < wire.MinMinor {
			return fmt.Errorf("probed: server speaks protocol %d.%d, need at least %d.%d",
				w.Major, w.Minor, wire.VersionMajor, wire.MinMinor)
		}
		c.bits = w.Bits
		return nil
	case wire.MsgError:
		em, err := wire.DecodeErrorMsg(payload)
		if err != nil {
			return err
		}
		return &ServerError{Code: em.Code, Msg: em.Msg}
	default:
		return fmt.Errorf("probed: unexpected handshake frame 0x%02x", typ)
	}
}

// GridBits returns the served database's bits per dimension, learned
// in the handshake.
func (c *Conn) GridBits() []int {
	out := make([]int, len(c.bits))
	for i, b := range c.bits {
		out[i] = int(b)
	}
	return out
}

// SetTrace toggles request tracing: while on, each request asks the
// server for its per-phase timing breakdown (LastTiming) and, for
// data requests, the rendered server-side span tree (LastTrace).
func (c *Conn) SetTrace(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = on
}

// LastTiming returns the server timing breakdown of the most recent
// traced request on this connection; the zero Timing if there is
// none.
func (c *Conn) LastTiming() Timing {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTiming
}

// LastTrace returns the rendered server-side span tree of the most
// recent traced data request; "" if there is none.
func (c *Conn) LastTrace() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTrace
}

// SetTraceID sets the distributed trace ID stamped on every
// subsequent traced request (protocol 1.4). A coordinator fanning one
// client request out to backends sets the request's ID here so all
// backend-side spans and log lines correlate; zero clears it, letting
// the server mint per-request IDs again.
func (c *Conn) SetTraceID(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traceID = id
}

// LastTraceID returns the trace ID of the most recent traced data
// request — the ID set via SetTraceID, or the one the server minted —
// as reported in its TRACE frame; 0 if there is none.
func (c *Conn) LastTraceID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTraceID
}

// LastTraceTree returns the parsed server-side span tree of the most
// recent traced data request, nil if there is none. The tree is
// sealed: durations and counters read back exactly as the server
// recorded them.
func (c *Conn) LastTraceTree() *probe.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSpan
}

// reqFlags returns the wire flags for the next request: FlagTrace
// when tracing is on.
func (c *Conn) reqFlags() uint8 {
	if c.trace {
		return wire.FlagTrace
	}
	return 0
}

// header assembles a request header: id, the context's deadline as
// the wire timeout, and the tracing tail (flags byte plus trace ID).
func (c *Conn) header(id uint32, ctx context.Context) wire.Header {
	return wire.Header{ID: id, TimeoutMS: timeoutMS(ctx), Flags: c.reqFlags(), Trace: c.traceID}
}

// Close closes the connection. In-flight requests fail with a
// transport error; an open transaction is rolled back server-side.
func (c *Conn) Close() error { return c.conn.Close() }

// Broken returns the *PoisonedError that killed the connection, or
// nil while it is still usable. A non-nil result is permanent.
func (c *Conn) Broken() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// poison marks the connection permanently dead after a mid-stream
// transport failure and returns the sticky typed error. Called with
// c.mu held (all request paths hold it).
func (c *Conn) poison(err error) error {
	if c.broken == nil {
		var pe *PoisonedError
		if errors.As(err, &pe) {
			c.broken = pe
		} else {
			c.broken = &PoisonedError{Cause: err}
		}
	}
	return c.broken
}

// write puts whole frames on the connection with one Write.
func (c *Conn) write(frames []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	_, err := c.conn.Write(frames)
	return err
}

// cancel asks the server to stop request id. It runs beside the
// request (a context's AfterFunc) as well as inside it, so it builds
// its frame apart from the connection's buffers.
func (c *Conn) cancel(id uint32) {
	frame, _ := wire.AppendFrame(nil, wire.MsgCancel, wire.Cancel{ID: id})
	c.write(frame) // advisory: a failed write shows on the request's own path
}

// timeoutMS derives the wire timeout from the context's deadline: at
// least 1 once there is a deadline (0 means none on the wire), at most
// what the u32 holds.
func timeoutMS(ctx context.Context) uint32 {
	if ctx == nil {
		return 0
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return uint32(min(max(time.Until(dl).Milliseconds(), 1), math.MaxUint32))
}

// gather adds one decoded batch to an answer: the first batch is the
// answer as it was decoded, a later one is appended to it.
func gather[T any](answer, batch []T) []T {
	if answer == nil {
		return batch
	}
	return append(answer, batch...)
}

// errStop is what a batch or rows handler returns when the caller's
// callback wants no more.
var errStop = errors.New("stop")

// handlers routes a request's response frames; any field may be nil.
// batch and rows returning an error ask for the stream to stop: the
// request is cancelled server-side and drained to its terminal frame
// so the connection stays usable.
type handlers struct {
	batch  func(wire.Batch) error
	text   func(string)
	kv     func(wire.StatsKV)
	schema func([]probe.QueryColumn)
	rows   func([]probe.QueryRow) error
}

// do runs one request round trip: encode the request into the
// connection's buffer and write it, stream response frames to the
// handlers until Done or Error, relaying a context cancellation as a
// CANCEL frame. While tracing, the TRACE frame's span tree lands in
// lastSpan and a Done timing array lands in lastTiming.
func do[M wire.Message](c *Conn, ctx context.Context, typ uint8, req M, id uint32, h handlers) (probe.QueryStats, error) {
	if c.broken != nil {
		return probe.QueryStats{}, c.broken
	}
	c.lastTiming, c.lastTrace = Timing{}, ""
	c.lastTraceID, c.lastSpan = 0, nil
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return probe.QueryStats{}, err
		}
	}
	var err error
	if c.wbuf, err = wire.AppendFrame(c.wbuf[:0], typ, req); err != nil {
		return probe.QueryStats{}, err // nothing was written: the connection is intact
	}
	if err := c.write(c.wbuf); err != nil {
		return probe.QueryStats{}, c.poison(err)
	}
	if ctx != nil && ctx.Done() != nil {
		// A late CANCEL, for a request already answered, is a no-op at
		// the server, so nothing waits for a callback that has started.
		stop := context.AfterFunc(ctx, func() { c.cancel(id) })
		defer stop()
	}
	return c.answer(id, h)
}

// answer reads one request's response frames to its terminal one.
func (c *Conn) answer(id uint32, h handlers) (probe.QueryStats, error) {
	for {
		ftyp, fp, err := wire.ReadFrameInto(c.br, &c.rbuf)
		if err != nil {
			return probe.QueryStats{}, c.poison(err)
		}
		switch ftyp {
		case wire.MsgBatch:
			b, err := wire.DecodeBatch(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if b.ID != id || h.batch == nil {
				continue
			}
			if err := h.batch(b); err != nil {
				// The consumer wants out: cancel server-side and keep
				// reading to the request's terminal frame so the
				// connection stays usable.
				c.cancel(id)
				h.batch = nil
			}
		case wire.MsgText:
			tm, err := wire.DecodeTextMsg(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if tm.ID == id {
				if h.text != nil {
					h.text(tm.Text)
				}
			}
		case wire.MsgTrace:
			tm, err := wire.DecodeTraceMsg(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if tm.ID == id {
				root, err := probe.DecodeTrace(tm.Span)
				if err != nil {
					return probe.QueryStats{}, c.poison(fmt.Errorf("probed: malformed TRACE frame: %w", err))
				}
				c.lastTraceID = tm.TraceID
				c.lastSpan = root
				c.lastTrace = root.Render(true)
			}
		case wire.MsgStatsKV:
			kv, err := wire.DecodeStatsKV(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if kv.ID == id && h.kv != nil {
				h.kv(kv)
			}
		case wire.MsgSchema:
			sm, err := wire.DecodeSchemaMsg(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if sm.ID == id && h.schema != nil {
				h.schema(sm.Cols)
			}
		case wire.MsgRows:
			rm, err := wire.DecodeRowsMsg(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if rm.ID != id || h.rows == nil {
				continue
			}
			if err := h.rows(rm.Rows); err != nil {
				c.cancel(id)
				h.rows = nil
			}
		case wire.MsgDone:
			dn := &c.done
			if err := dn.Decode(fp); err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if dn.ID != id {
				continue
			}
			if len(dn.Timings) > 0 {
				c.lastTiming = Timing{
					Queue:  time.Duration(dn.Timing(wire.TimingQueue)),
					Plan:   time.Duration(dn.Timing(wire.TimingPlan)),
					Exec:   time.Duration(dn.Timing(wire.TimingExec)),
					Stream: time.Duration(dn.Timing(wire.TimingStream)),
					Total:  time.Duration(dn.Timing(wire.TimingTotal)),
				}
			}
			var n obs.Counts
			for i, k := range wire.StatCounters {
				n[k] = int64(dn.Stat(i))
			}
			return core.StatsOf(&n), nil
		case wire.MsgError:
			em, err := wire.DecodeErrorMsg(fp)
			if err != nil {
				return probe.QueryStats{}, c.poison(err)
			}
			if em.ID != id {
				continue
			}
			return probe.QueryStats{}, &ServerError{Code: em.Code, Msg: em.Msg}
		default:
			err := fmt.Errorf("probed: unexpected frame type 0x%02x", ftyp)
			return probe.QueryStats{}, c.poison(err)
		}
	}
}

// begin claims the connection and allocates a request id.
func (c *Conn) begin() uint32 {
	id := c.nextID
	c.nextID++
	return id
}

// RangeFunc streams every point in the box to fn in z order;
// returning false from fn stops the query (the server is cancelled)
// without error. Inside an open transaction the server answers from
// the transaction's view.
func (c *Conn) RangeFunc(ctx context.Context, lo, hi []uint32, fn func(probe.Point) bool) (probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rangeFuncLocked(ctx, lo, hi, fn)
}

func (c *Conn) rangeFuncLocked(ctx context.Context, lo, hi []uint32, fn func(probe.Point) bool) (probe.QueryStats, error) {
	return c.rangeBatches(ctx, lo, hi, func(pts []probe.Point) bool {
		for _, p := range pts {
			if !fn(p) {
				return false
			}
		}
		return true
	})
}

// rangeBatches streams the box's points to fn a batch at a time, each
// batch a slice of its own that fn may keep.
func (c *Conn) rangeBatches(ctx context.Context, lo, hi []uint32, fn func([]probe.Point) bool) (probe.QueryStats, error) {
	id := c.begin()
	req := wire.RangeReq{Header: c.header(id, ctx), Lo: lo, Hi: hi}
	stopped := false
	qs, err := do(c, ctx, wire.MsgRange, req, id, handlers{batch: func(b wire.Batch) error {
		if !fn(b.Points) {
			stopped = true
			return errStop
		}
		return nil
	}})
	if err != nil && stopped && errors.Is(err, ErrCanceled) {
		return qs, nil
	}
	return qs, err
}

// Range returns every point in the box.
func (c *Conn) Range(ctx context.Context, lo, hi []uint32) ([]probe.Point, probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rangeLocked(ctx, lo, hi)
}

func (c *Conn) rangeLocked(ctx context.Context, lo, hi []uint32) ([]probe.Point, probe.QueryStats, error) {
	var pts []probe.Point
	qs, err := c.rangeBatches(ctx, lo, hi, func(b []probe.Point) bool {
		pts = gather(pts, b)
		return true
	})
	if err != nil {
		return nil, qs, err
	}
	return pts, qs, nil
}

// Nearest returns the m indexed points nearest q under the metric.
func (c *Conn) Nearest(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nearestLocked(ctx, q, m, metric)
}

func (c *Conn) nearestLocked(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error) {
	id := c.begin()
	req := wire.NearestReq{
		Header: c.header(id, ctx),
		Metric: uint8(metric), M: uint32(m), Q: q,
	}
	var nbs []probe.Neighbor
	qs, err := do(c, ctx, wire.MsgNearest, req, id, handlers{batch: func(b wire.Batch) error {
		nbs = gather(nbs, b.Neighbors)
		return nil
	}})
	if err != nil {
		return nil, qs, err
	}
	return nbs, qs, nil
}

// Join ships two box relations and returns the distinct overlapping
// id pairs of their spatial join. workers is sent in the request's
// Workers field, which the server ignores: the join is the one
// sequential merge.
func (c *Conn) Join(ctx context.Context, a, b []BoxItem, workers int) ([]probe.Pair, probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.begin()
	req := wire.JoinReq{
		Header:  c.header(id, ctx),
		Workers: uint32(workers), Dims: uint32(len(c.bits)),
		A: a, B: b,
	}
	var pairs []probe.Pair
	qs, err := do(c, ctx, wire.MsgJoin, req, id, handlers{batch: func(bt wire.Batch) error {
		pairs = gather(pairs, bt.Pairs)
		return nil
	}})
	if err != nil {
		return nil, qs, err
	}
	return pairs, qs, nil
}

// Insert ships a batch of points for insertion. The returned stats
// carry the inserted count in Results. Inside an open transaction the
// batch buffers server-side until Commit.
func (c *Conn) Insert(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(ctx, wire.MsgInsert, pts)
}

// Delete ships a batch of points for deletion (protocol 1.2). Points
// already absent are skipped, not an error; the returned stats carry
// the actually-removed count in Results.
func (c *Conn) Delete(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(ctx, wire.MsgDelete, pts)
}

// writeLocked is INSERT or DELETE: one request shape under two opcodes.
func (c *Conn) writeLocked(ctx context.Context, typ uint8, pts []probe.Point) (probe.QueryStats, error) {
	id := c.begin()
	req := wire.InsertReq{Header: c.header(id, ctx), Dims: uint32(len(c.bits)), Points: pts}
	return do(c, ctx, typ, req, id, handlers{})
}

// Checkpoint forces a durability checkpoint on the server.
func (c *Conn) Checkpoint(ctx context.Context) (probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.begin()
	req := wire.SimpleReq{Header: c.header(id, ctx)}
	return do(c, ctx, wire.MsgCheckpoint, req, id, handlers{})
}

// Explain returns the plan the server's optimizer picks for a range
// query, without running it.
func (c *Conn) Explain(ctx context.Context, lo, hi []uint32) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.begin()
	req := wire.RangeReq{Header: c.header(id, ctx), Lo: lo, Hi: hi}
	var text string
	_, err := do(c, ctx, wire.MsgExplain, req, id, handlers{text: func(s string) { text = s }})
	return text, err
}

// QueryResult is one materialized spatial SQL result: the schema, the
// rows (typed values aligned with the columns), the EXPLAIN rendering
// for EXPLAIN statements (Rows is then nil), and the server's stats.
type QueryResult struct {
	Columns []probe.QueryColumn
	Rows    []probe.QueryRow
	Explain string
	Stats   probe.QueryStats
}

// Query runs one spatial SQL statement (protocol 1.3; docs/query.md
// defines the language) and materializes the result. Parse and plan
// failures come back as *ServerError values matching ErrParse and
// ErrPlan. Inside an open transaction the statement runs on the
// transaction's view.
func (c *Conn) Query(ctx context.Context, text string) (*QueryResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queryLocked(ctx, text)
}

func (c *Conn) queryLocked(ctx context.Context, text string) (*QueryResult, error) {
	res := &QueryResult{}
	qs, err := c.queryBatches(ctx, text,
		func(cols []probe.QueryColumn) { res.Columns = cols },
		func(rows []probe.QueryRow) bool {
			res.Rows = gather(res.Rows, rows)
			return true
		},
		func(s string) { res.Explain = s })
	if err != nil {
		return nil, err
	}
	res.Stats = qs
	return res, nil
}

// QueryFunc runs one spatial SQL statement, streaming rows to onRow
// as batches arrive; returning false stops the query (the server is
// cancelled) without error. onSchema, if non-nil, is called once with
// the result schema before the first row. EXPLAIN statements produce
// no schema or rows; use Query for those.
func (c *Conn) QueryFunc(ctx context.Context, text string, onSchema func([]probe.QueryColumn), onRow func(probe.QueryRow) bool) (probe.QueryStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queryFuncLocked(ctx, text, onSchema, onRow)
}

func (c *Conn) queryFuncLocked(ctx context.Context, text string,
	onSchema func([]probe.QueryColumn), onRow func(probe.QueryRow) bool) (probe.QueryStats, error) {
	return c.queryBatches(ctx, text, onSchema, func(rows []probe.QueryRow) bool {
		for _, row := range rows {
			if onRow != nil && !onRow(row) {
				return false
			}
		}
		return true
	}, nil)
}

// queryBatches runs one statement, handing its rows to onRows a ROWS
// message at a time, each a slice of its own that onRows may keep.
func (c *Conn) queryBatches(ctx context.Context, text string, onSchema func([]probe.QueryColumn),
	onRows func([]probe.QueryRow) bool, onText func(string)) (probe.QueryStats, error) {
	id := c.begin()
	req := wire.QueryReq{Header: c.header(id, ctx), Text: text}
	stopped := false
	qs, err := do(c, ctx, wire.MsgQuery, req, id, handlers{
		text:   onText,
		schema: onSchema,
		rows: func(rows []probe.QueryRow) error {
			if !onRows(rows) {
				stopped = true
				return errStop
			}
			return nil
		},
	})
	if err != nil && stopped && errors.Is(err, ErrCanceled) {
		return qs, nil
	}
	return qs, err
}

// Stats returns a snapshot of the server's and the database's
// cumulative metrics as a flat name → value map: counters and gauges
// directly, histograms as .count/.p50/.p95/.p99/.max summaries, with
// "server." and "db." name prefixes.
func (c *Conn) Stats(ctx context.Context) (map[string]int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.begin()
	req := wire.SimpleReq{Header: c.header(id, ctx)}
	out := make(map[string]int64)
	_, err := do(c, ctx, wire.MsgStats, req, id, handlers{
		kv: func(kv wire.StatsKV) {
			for _, e := range kv.KVs {
				out[e.Name] = e.Value
			}
		}})
	if err != nil {
		return nil, err
	}
	return out, nil
}
