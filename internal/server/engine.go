package server

import (
	"context"
	"errors"

	"probe"
	"probe/internal/core"
	"probe/internal/session"
	"probe/internal/wire"
)

// engine is the session layer's Engine over the server's current
// database. Every read takes the database's snapshot path — one
// pinned committed tree version, no database mutex — so reads on one
// connection do not stall behind a writer on another. A traced read
// passes the request span down with it, and every counter on that span,
// pool gets included, is the request's own.
type engine struct{ s *Server }

// queryOpts assembles the options of a read: the request context
// always, the request span only when the client asked for the trace.
func queryOpts(ctx context.Context) []probe.QueryOption {
	opts := []probe.QueryOption{probe.WithContext(ctx)}
	if span, _, traced := session.TraceFrom(ctx); traced {
		opts = append(opts, probe.WithTrace(span))
	}
	return opts
}

func (e engine) Grid() probe.Grid { return e.s.database().Grid() }

func (e engine) Range(ctx context.Context, box probe.Box, fn func(probe.Point) bool) (probe.QueryStats, error) {
	return e.s.database().RangeSearchFunc(box, fn, queryOpts(ctx)...)
}

func (e engine) Nearest(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error) {
	return e.s.database().Nearest(q, m, metric, queryOpts(ctx)...)
}

// Join decomposes both shipped relations on the database's grid and
// merges them; it touches no stored data, so it always runs attributed
// to the request span.
func (e engine) Join(ctx context.Context, a, b []session.BoxItem) ([]probe.Pair, probe.QueryStats, error) {
	g := e.Grid()
	decompose := func(items []session.BoxItem) []probe.Item {
		var out []probe.Item
		for _, it := range items {
			out = core.AppendBoxItems(out, g, it.Box, it.ID)
		}
		probe.SortItems(out)
		return out
	}
	span, _, _ := session.TraceFrom(ctx)
	return probe.SpatialJoin(decompose(a), decompose(b), probe.WithContext(ctx), probe.WithTrace(span))
}

func (e engine) Insert(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	return probe.QueryStats{}, e.s.database().InsertAll(pts)
}

func (e engine) Delete(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	return deleteEach(pts, e.s.database().Delete)
}

// deleteEach removes pts one by one, counting those actually present.
func deleteEach(pts []probe.Point, del func(probe.Point) (bool, error)) (probe.QueryStats, error) {
	removed := 0
	for _, p := range pts {
		ok, err := del(p)
		if err != nil {
			return probe.QueryStats{}, err
		}
		if ok {
			removed++
		}
	}
	return probe.QueryStats{Results: removed}, nil
}

func (e engine) Checkpoint(ctx context.Context) (probe.QueryStats, error) {
	span, _, _ := session.TraceFrom(ctx)
	return e.s.database().Checkpoint(probe.WithTrace(span))
}

func (e engine) Explain(ctx context.Context, box probe.Box) (string, error) {
	return e.s.database().Explain(box)
}

func (e engine) Prepare(text string) (session.Stmt, error) {
	return stmtOf(e.s.database().Prepare(text))
}

// stmtOf keeps a failed Prepare's nil *probe.Stmt out of the interface.
func stmtOf(stmt *probe.Stmt, err error) (session.Stmt, error) {
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// Stats answers with the server's registry and the database's, as
// "server.*" and "db.*".
func (e engine) Stats() []session.StatsSection {
	return []session.StatsSection{
		{Prefix: "server", Registry: e.s.Metrics()},
		{Prefix: "db", Registry: e.s.database().Metrics()},
	}
}

func (e engine) Begin(ctx context.Context) (session.Tx, error) {
	tx, err := e.s.database().Begin(ctx)
	if err != nil {
		return nil, err
	}
	return txEngine{e, tx}, nil
}

func (engine) ErrorCode(err error) uint8 {
	switch {
	case errors.Is(err, probe.ErrTxConflict):
		return wire.CodeConflict
	case errors.Is(err, probe.ErrClosed):
		return wire.CodeShuttingDown
	}
	return 0
}

// txEngine is the engine inside one wire transaction: reads run on the
// transaction's pinned snapshot with its write-set applied, writes
// only buffer — the shared index is untouched until Commit. What a
// transaction does not scope (JOIN, CHECKPOINT, EXPLAIN, STATS) stays
// the embedded engine's.
type txEngine struct {
	engine
	tx *probe.Tx
}

func (e txEngine) Range(ctx context.Context, box probe.Box, fn func(probe.Point) bool) (probe.QueryStats, error) {
	return e.tx.RangeSearchFunc(box, fn, probe.WithContext(ctx))
}

func (e txEngine) Nearest(ctx context.Context, q []uint32, m int, metric probe.Metric) ([]probe.Neighbor, probe.QueryStats, error) {
	return e.tx.Nearest(q, m, metric, probe.WithContext(ctx))
}

func (e txEngine) Insert(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	return probe.QueryStats{}, e.tx.InsertAll(pts)
}

func (e txEngine) Delete(ctx context.Context, pts []probe.Point) (probe.QueryStats, error) {
	return deleteEach(pts, e.tx.Delete)
}

func (e txEngine) Prepare(text string) (session.Stmt, error) {
	return stmtOf(e.tx.Prepare(text))
}

func (e txEngine) Commit() (probe.QueryStats, error) {
	pending := e.tx.Pending()
	return probe.QueryStats{Results: pending}, e.tx.Commit()
}

func (e txEngine) Rollback() { e.tx.Rollback() }
