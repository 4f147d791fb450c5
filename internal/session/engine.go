package session

import (
	"context"
	"errors"

	"probe"
	"probe/internal/obs"
	"probe/internal/wire"
	"probe/internal/zorder"
)

// Engine is what a Server executes requests against. The session layer
// has already decoded and validated a request when it calls in — boxes
// boxes, join items and points are well-formed, of the grid's arity and
// inside the grid, the metric is a known value — so an engine error is
// an execution failure, never a malformed request.
//
// There are two implementations: internal/server's adapter over one
// probe.DB, and internal/router's scatter-gather Router. Every method
// may be called concurrently from many sessions. The request's tracing
// state travels in ctx (see TraceFrom).
type Engine interface {
	// Grid is the space requests are validated against and WELCOME
	// announces.
	Grid() zorder.Grid

	// Range streams the points inside box to fn in (z, id) order; fn
	// returning false stops the search without error.
	Range(ctx context.Context, box probe.Box, fn func(probe.Point) bool) (probe.QueryStats, error)
	// Nearest returns the m points nearest q, ordered by (distance, id).
	Nearest(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error)
	// Join returns the distinct overlapping (a, b) id pairs of two
	// shipped box relations, sorted.
	Join(ctx context.Context, a, b []BoxItem, workers int) ([]probe.Pair, probe.QueryStats, error)
	// Insert applies a point batch; it is not interrupted once started.
	Insert(ctx context.Context, pts []probe.Point) (probe.QueryStats, error)
	// Delete removes a point batch; absent points are skipped and
	// Results counts those actually removed.
	Delete(ctx context.Context, pts []probe.Point) (probe.QueryStats, error)
	// Checkpoint makes the engine's state durable.
	Checkpoint(ctx context.Context) (probe.QueryStats, error)
	// Explain describes the access path a range query over box takes.
	Explain(ctx context.Context, box probe.Box) (string, error)
	// Prepare parses and compiles one spatial SQL statement; failures
	// are *probe.QueryError.
	Prepare(text string) (Stmt, error)

	// Stats names the registries a STATS request snapshots, in answer
	// order.
	Stats() []StatsSection

	// Begin opens a transaction whose lifetime is ctx's, not the
	// request's. An engine without transactions returns an error its
	// ErrorCode types.
	Begin(ctx context.Context) (Tx, error)

	// ErrorCode maps an engine-specific execution error to its wire
	// code, 0 for one it does not know; context errors are typed by the
	// session layer.
	ErrorCode(err error) uint8
}

// errReadOnly answers every write to a Config.ReadOnly server.
var errReadOnly = errors.New("server is read-only (replica); send writes to the primary")

// readOnly is the Engine of a Config.ReadOnly server: writes stop here
// and never reach the engine it wraps.
type readOnly struct{ Engine }

func (readOnly) Insert(context.Context, []probe.Point) (probe.QueryStats, error) {
	return probe.QueryStats{}, errReadOnly
}

func (readOnly) Delete(context.Context, []probe.Point) (probe.QueryStats, error) {
	return probe.QueryStats{}, errReadOnly
}

func (readOnly) Checkpoint(context.Context) (probe.QueryStats, error) {
	return probe.QueryStats{}, errReadOnly
}

func (readOnly) Begin(context.Context) (Tx, error) { return nil, errReadOnly }

// Tx is an Engine scoped to one open transaction: while a session
// holds it, the session's RANGE, NEAREST, INSERT, DELETE and QUERY
// requests run on it — reads see the transaction's snapshot plus its
// own writes, writes buffer until Commit.
type Tx interface {
	Engine
	// Commit publishes the transaction; Results counts the write
	// statements applied. Either way the transaction is over.
	Commit() (probe.QueryStats, error)
	// Rollback discards the transaction.
	Rollback()
}

// Stmt is a prepared statement; *probe.Stmt is one.
type Stmt interface {
	// IsExplain reports an EXPLAIN statement: ExplainText answers it
	// instead of Run.
	IsExplain() bool
	ExplainText(ctx context.Context) (string, error)
	// Columns is the result schema of the underlying SELECT.
	Columns() []probe.QueryColumn
	// Run streams the result rows to fn; fn returning false stops the
	// statement without error.
	Run(ctx context.Context, fn func(probe.QueryRow) bool) (probe.QueryStats, error)
}

// BoxItem is one validated member of a shipped join relation.
type BoxItem struct {
	ID  uint64
	Box probe.Box
}

// StatsSection is one registry of a STATS answer. Its metrics are
// reported as "<Prefix>.<name>"; an empty Prefix reports the names
// bare.
type StatsSection struct {
	Prefix   string
	Registry *obs.Registry
}

// statsKVs flattens the sections into the STATSKV answer.
func statsKVs(secs []StatsSection) []wire.KV {
	var kvs []wire.KV
	for _, sec := range secs {
		prefix := sec.Prefix
		if prefix != "" {
			prefix += "."
		}
		sec.Registry.DoNumeric(func(name string, v int64) {
			kvs = append(kvs, wire.KV{Name: prefix + name, Value: v})
		})
	}
	return kvs
}

type traceKey struct{}

// TraceFrom returns the tracing state of the request ctx belongs to:
// the span the request's work is attributed to, its distributed trace
// ID, and whether the client asked for the trace (FlagTrace). Outside
// a request it returns nil, 0, false. Span methods are safe on nil.
func TraceFrom(ctx context.Context) (span *probe.Trace, id uint64, traced bool) {
	rq, _ := ctx.Value(traceKey{}).(*request)
	if rq == nil {
		return nil, 0, false
	}
	return rq.span, rq.trace, rq.traced()
}
